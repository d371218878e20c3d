(** Distributions of the number of manufacturing defects.

    The paper's defect model is: a random number of defects [K ~ Q], each
    defect independently affecting component [i] {e and being lethal} with
    probability [P_i]. The distribution [Q] is arbitrary; the negative
    binomial (Eq. 2 of the paper) is the industry-standard choice and the
    one used in the experiments, with mean λ and clustering parameter α
    (clustering increases as α decreases; compound-Poisson yield models of
    Koren et al. are of this family). *)

type t

(** {1 Constructors} *)

(** [negative_binomial ~mean ~alpha] — Eq. (2): pmf
    Q_k = Γ(α+k)/(k!Γ(α)) · (λ/α)^k / (1+λ/α)^(α+k). Raises
    [Invalid_argument] unless mean and alpha are positive and finite. *)
val negative_binomial : mean:float -> alpha:float -> t

(** [poisson ~mean] — the α → ∞ limit of the negative binomial. *)
val poisson : mean:float -> t

(** [binomial ~n ~p]. *)
val binomial : n:int -> p:float -> t

(** [of_array q] — finite distribution with [P(K=k) ∝ q.(k)]. Entries must
    be nonnegative; the array is normalized by its total, which must be
    positive and finite. Raises [Invalid_argument] otherwise — NaN entries
    are reported distinctly (["NaN mass"]) from negative ones (["negative
    mass"]). *)
val of_array : float array -> t

(** [of_pmf ~name pmf] — arbitrary distribution given by its pmf; the pmf
    must have a finite mean and [Σ pmf] must converge to 1. *)
val of_pmf : name:string -> (int -> float) -> t

(** [mixture weighted] — the convex mixture Σ w_i · d_i. Weights must be
    positive and finite (NaN is reported distinctly) and are normalized.
    Mixtures model multi-population fabs
    (e.g. a mostly-clean process with an excursion mode) and remain within
    the paper's model class: the lethal mapping Eq. (1) commutes with
    mixing, which {!lethal} exploits by mapping each component
    separately. *)
val mixture : (float * t) list -> t

(** {1 Observers} *)

val name : t -> string

(** [pmf d k] is P(K = k); 0 for negative [k]. *)
val pmf : t -> int -> float

(** [cdf d k] is P(K <= k). *)
val cdf : t -> int -> float

(** [pmf_array d ~upto] is [| pmf 0; …; pmf upto |]. *)
val pmf_array : t -> upto:int -> float array

(** Expected value (analytic when known, numeric for custom pmfs). *)
val mean : t -> float

(** {1 The lethal-defects mapping (Eq. 1)}

    If each defect is independently "kept" with probability [p_lethal], the
    number of kept (lethal) defects has distribution
    Q'_k = Σ_{m ≥ k} Q_m · C(m,k) · p_lethal^k · (1 − p_lethal)^(m−k).
    For the negative binomial this is again negative binomial with the same
    clustering parameter and mean λ·p_lethal (Koren-Koren-Stapper); Poisson
    and binomial also have closed forms. *)

(** [lethal d ~p_lethal] uses the closed form when one exists, and
    {!lethal_generic} otherwise. *)
val lethal : t -> p_lethal:float -> t

(** [lethal_generic d ~p_lethal ~tol] evaluates Eq. (1) numerically,
    truncating the outer sum once the remaining mass of [d] is below [tol].
    Exposed separately so tests can validate the closed forms against it. *)
val lethal_generic : t -> p_lethal:float -> tol:float -> t

(** {1 Truncation (Section 2)} *)

(** [truncation_point d ~epsilon] is M = min{m : Σ_{k≤m} pmf k ≥ 1 − ε},
    the number of (lethal) defects the method analyzes for an absolute
    yield error ≤ ε. Raises [Invalid_argument] unless ε is positive and
    finite, or if M is not reached within 100000 terms (a mean defect
    count far beyond any chip's: the analysis could not run anyway). *)
val truncation_point : t -> epsilon:float -> int

(** [sampler d ~max_k] is a cdf table usable with {!Socy_util.Prng.categorical}
    for Monte Carlo simulation: index [max_k + 1] aggregates the tail. *)
val sampler : t -> max_k:int -> float array
