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

(** [run c] extracts the distribution of the dynamic circuit [c] starting
    from |0...0>.

    [cutoff] prunes branches with accumulated probability at or below it
    (default [1e-12]).  [domains] > 1 distributes the first branch points
    over that many OCaml domains, the calling one included, each
    re-simulating its forced prefix with a private DD package (the paper
    notes the branches are embarrassingly parallel; its own evaluation is
    sequential, and so is the default here).  The tasks the calling
    domain does not run go to helper domains ({!Par.Helper.spawn}),
    parked ones when idle, so repeated calls do not spawn and join a
    domain each; their metrics and spans are folded into the caller's
    at join.  The walk
    roots the state of every pending branch, so the packages' checkpoint
    sweeps are safe mid-walk.

    Each package compiles [c] once ({!Dd_sim.compile}) before its
    walk, so a branch pays only for DD work, not for resolving gate
    signatures.  The program belongs to that package and stays valid
    across its checkpoint sweeps and [compact]: signature ids are never
    reused.  The leaves are collected in a list and summed into the
    distribution by one sort. *)
val run : ?cutoff:float -> ?domains:int -> Circuit.Circ.t -> result

(** [tree c] materializes the whole branching structure; only sensible
    for small numbers of measurements.  It walks a compiled program,
    like {!run}. *)
val tree : ?cutoff:float -> Circuit.Circ.t -> tree
