(** Component importance for yield (an extension beyond the paper,
    DESIGN.md §7 — a first step toward its "operational reliability"
    future work).

    The yield-gain importance of component [i] answers the designer's
    question "how much yield would I recover by hardening component [i]
    against defects?": it is Y(P with P_i := 0) − Y(P), evaluated exactly
    with the combinatorial method. Setting [P_i := 0] both removes the
    component from the victim distribution {e and} lowers P_L, so the
    lethal-defect count distribution is remapped through Eq. (1) — the
    finite difference captures the full, clustered-defect semantics. *)

type entry = {
  component : int;
  name : string;  (** display name; "component i" when none supplied *)
  base_yield : float;
  hardened_yield : float;  (** yield with P_i = 0 *)
  gain : float;  (** hardened − base (can be negative only by rounding) *)
}

(** [yield_gain ?config ?names fault_tree model] runs the base evaluation
    and returns its report with the gain of every component, sorted by
    decreasing gain, or the base run's failure. Runs the full pipeline
    C+1 times — intended for design-space exploration on moderate
    instances. Skips (omits) components whose hardened run exceeds the
    node budget. *)
val yield_gain :
  ?config:Pipeline.config ->
  ?names:string array ->
  Socy_logic.Circuit.t ->
  Socy_defects.Model.t ->
  (Pipeline.report * entry list, Pipeline.failure) result
