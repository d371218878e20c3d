(** Conversion of a coded ROBDD into the ROMDD it encodes — the layer
    algorithm of the paper (Section 2, illustrated by its Fig. 3).

    The coded ROBDD must use a binary variable ordering in which the bits
    encoding each multiple-valued variable are contiguous ("kept grouped"),
    with groups ordered like the desired multiple-valued ordering. Layers
    are processed bottom-up; each entry node of a layer (a node reached from
    a different layer, or the root) is mapped to an ROMDD node by
    "simulating", for every domain value, the codeword of that value through
    the layer's binary nodes. The simulations of one entry share one walk:
    the layer's codewords form a binary trie in level order, and the
    entry's BDD nodes and the trie are descended together, so a prefix
    common to several codewords is followed once. *)

type layout = {
  group_of_level : int array;
      (** BDD level → group (= ROMDD level). Must be monotone nondecreasing:
          groups occupy contiguous level blocks in order. *)
  levels_of_group : int array array;
      (** group → its BDD levels, increasing. *)
  codeword : int -> int -> bool array;
      (** [codeword g j] = bit values of value [j] of group [g], aligned
          with [levels_of_group.(g)] (one bit per level). *)
}

(** [run bdd root mdd layout] converts the coded ROBDD [root] into an ROMDD
    inside [mdd]. The number of groups must equal [Mdd.num_mvars mdd] and
    [layout.levels_of_group] must cover every BDD level below
    [Manager.num_vars bdd].

    Returns the ROMDD root. Nodes corresponding to binary combinations that
    encode no domain value are never created (the paper instead creates and
    then prunes them; the result is the same reduced diagram).

    Raises [Invalid_argument] when a codeword's length differs from its
    group's level count.

    With [?team], layers are processed layer-parallel: the per-entry
    codeword simulations of each layer — independent given the already
    processed deeper layers — are partitioned across the team's domains
    (the [Par.run] join is the per-level barrier), then the [Mdd.mk]
    calls run sequentially in a fixed order. The produced ROMDD — node
    ids included — is bit-identical to the teamless run: only the
    simulation phase, which touches no shared mutable state, is
    distributed. Layers below an entry-count threshold stay on the
    caller.

    When {!Socy_obs.Obs} is enabled, the entry-node sweep runs in a
    [mdd.convert.scan] span, each layer in a [mdd.convert.layer] span, and
    the per-layer entry-node counts feed the [mdd.convert.entry_nodes]
    counter and the [mdd.convert.layer_entries] histogram; parallel
    layers are counted in [mdd.convert.par_layers]. *)
val run :
  ?team:Socy_bdd.Par.t ->
  Socy_bdd.Manager.t ->
  Socy_bdd.Manager.node ->
  Mdd.t ->
  layout ->
  Mdd.node
