(** Stochastic (shot-based) simulation of dynamic circuits — the first
    alternative the paper's Section 5 dismisses: realize every measurement
    and reset probabilistically and repeat the whole simulation, needing
    "huge amounts of individual runs" to pin down the distribution.

    Implemented over the decision-diagram backend; useful as yet another
    oracle (empirical distributions must converge to {!Extraction.run}'s
    exact ones at the usual [O(1/sqrt shots)] rate) and for the ablation
    benchmark quantifying the paper's argument. *)

type result =
  { counts : (string * int) list
        (** classical assignment to number of shots observing it *)
  ; shots : int
  }

(** [empirical r] normalizes counts into a distribution comparable with
    {!Extraction.run}. *)
val empirical : result -> (string * float) list

(** [run ~seed ~shots c] performs [shots] independent end-to-end
    simulations, sampling every measurement and reset outcome.  The
    circuit is compiled once for the shared package
    ({!Dd_sim.compile}) and every shot runs the program; the package
    may sweep between operations ({!Dd.Pkg.checkpoint}). *)
val run : seed:int -> shots:int -> Circuit.Circ.t -> result
