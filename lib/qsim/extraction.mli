(** Extraction of the complete measurement-outcome distribution of a
    dynamic quantum circuit by branching classical simulation — the paper's
    Section 5 scheme.

    Every measurement is a branching point: the probabilities of the
    measured qubit are check-pointed and simulation continues independently
    for both outcomes, with subsequent resets translated to no-op / X and
    classically-controlled operations resolved against the recorded
    outcome.  Resets that are not preceded by a measurement of the same
    qubit branch the same way, except that both branches contribute to the
    same classical assignment.  Branches whose accumulated probability falls
    below the pruning cutoff are never simulated. *)

type stats =
  { leaves : int  (** simulation paths reaching the end of the circuit *)
  ; branch_points : int  (** measurements/resets encountered, over all paths *)
  ; pruned : int  (** branches cut off by the probability threshold *)
  ; gate_applications : int
        (** gates applied, over all paths; a split walk also counts the
            prefix each lent subtree re-simulates, because that is work
            done *)
  }

type result =
  { distribution : (string * float) list
        (** classical assignment (a '0'/'1' string indexed by cbit) to
            probability, sorted by assignment *)
  ; stats : stats
  }

(** {1 Branching-tree view (paper Fig. 4)} *)

type tree =
  | Leaf of
      { cvals : string
      ; probability : float  (** accumulated along the path *)
      }
  | Branch of
      { qubit : int
      ; cbit : int option  (** [None] for a bare reset *)
      ; p0 : float
      ; p1 : float  (** check-pointed outcome probabilities *)
      ; zero : tree option
      ; one : tree option  (** pruned successors are [None] *)
      }

(** [pp_tree] renders the tree with check-pointed probabilities, in the
    spirit of the paper's Fig. 4. *)
val pp_tree : Format.formatter -> tree -> unit

(** [valid_cutoff x] holds when [x] is in [[0, 1)], NaN excluded: a
    negative cutoff would simulate outcomes of probability 0, and one of
    1 or more prunes every branch. *)
val valid_cutoff : float -> bool

(** [run c] extracts the distribution of the dynamic circuit [c] starting
    from |0...0>.

    [cutoff] prunes branches with accumulated probability at or below it
    (default [1e-12]); outside [[0, 1)] it raises [Invalid_argument].
    [domains] bounds the domains the walk uses, the calling one included
    (default [Domain.recommended_domain_count ()]); below 1 it raises
    [Invalid_argument].  The paper notes the branches are embarrassingly
    parallel; its own evaluation is sequential, and [~domains:1] walks in
    exactly that order.  A genuine branch point is one where both
    outcomes survive the cutoff.  Within the first [ceil (log2 domains)]
    of them on a path, the walk lends its outcome-1 subtree to a
    {!Par.Bag} of [domains] domains and goes on with outcome 0: a free
    helper takes it at once, otherwise the next domain of the call whose
    task ends.  A circuit without a genuine branch point (dynamic BV, say)
    runs on the calling domain alone.  Each subtree re-simulates its
    forced prefix in a package of its own, so the work and every count
    are the same whichever domain runs it, and [leaves], [branch_points]
    and [pruned] equal the one-domain walk's.  The leaves are merged in
    the one-domain walk's order, so at a given [domains] the distribution
    is bit-identical from run to run.  A lent subtree's readings are folded into the
    caller at join; a safepoint hook the caller installed does not run
    in it.  The walk roots the state of every pending branch, so the
    packages' checkpoint sweeps are safe mid-walk.

    Each package compiles [c] once ({!Dd_sim.compile}) before its
    walk, so a branch pays only for DD work, not for resolving gate
    signatures.  The program belongs to that package and stays valid
    across its checkpoint sweeps and [compact]: signature ids are never
    reused.  The leaves are collected in a list and summed into the
    distribution by one sort. *)
val run : ?cutoff:float -> ?domains:int -> Circuit.Circ.t -> result

(** [run_in bag c] is {!run} with the walk's subtrees lent to [bag],
    which may hold the caller's other tasks: [Par.Bag.domains bag] plays
    the part of [domains].  It returns once its own subtrees are done,
    and runs waiting tasks of the bag on the calling domain until then. *)
val run_in : Par.Bag.t -> ?cutoff:float -> Circuit.Circ.t -> result

(** [tree c] materializes the whole branching structure; only sensible
    for small numbers of measurements.  It walks a compiled program,
    like {!run}, and raises [Invalid_argument] on the same cutoffs. *)
val tree : ?cutoff:float -> Circuit.Circ.t -> tree
