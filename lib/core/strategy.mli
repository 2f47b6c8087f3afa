(** Equivalence-checking strategies for {e unitary} circuits, in the spirit
    of QCEC [41, 4].  Dynamic circuits must first go through the Section 4
    transformation ({!Verify} drives the whole flow). *)

(** Stimuli kinds for simulative checking, mirroring QCEC's classical /
    local-quantum / global-quantum stimuli: how the random input states of
    a {!Random_stimuli} run are drawn. *)
type stimuli =
  | Basis  (** random computational basis states *)
  | Product  (** random single-qubit (product) states *)
  | Entangled  (** random stabilizer states from a short Clifford circuit *)

(** The [Qsim.Stimuli] class each CLI-facing stimuli kind draws from:
    [Basis] ↦ classical, [Product] ↦ local quantum, [Entangled] ↦ global
    quantum. *)
val stimuli_class : stimuli -> Qsim.Stimuli.kind

type t =
  | Construction
      (** build both system matrices as DDs and compare canonically *)
  | Sequential
      (** apply every gate of [g], then every inverted gate of [g'], onto
          one product — the naive order, kept as a baseline: the
          intermediate DD peaks at the full system matrix of [g] *)
  | Proportional
      (** QCEC's generic strategy: start from the identity and interleave
          gates of [g] from the left with inverted gates of [g'] from the
          right, proportionally to the gate counts, so the intermediate
          product stays close to the identity; check that the final product
          is the identity *)
  | Lookahead
      (** analysis-driven variant: a static cost profile of both op streams
          ([Analysis.Cost] — Clifford membership, entangling structure,
          cancellation pairs) schedules the alternation so the applied cost
          mass stays balanced; when the profile has no preference, the step
          falls back to evaluating {e both} candidate products and keeping
          the smaller one, with the proportional order as final tie-break.
          A window bound keeps the schedule near the proportional position,
          so a misleading profile cannot starve one side *)
  | Simulation of int
      (** simulate both circuits on that many random computational basis
          states (seeded, reproducible) and compare state fidelities *)
  | Random_stimuli of
      { kind : stimuli
      ; shots : int
      }
      (** like [Simulation] but with a choice of stimuli; [Product] and
          [Entangled] stimuli catch discrepancies a basis state can miss
          (e.g. pure phase differences on superpositions) *)

type outcome =
  { equivalent : bool
  ; equivalent_up_to_phase : bool
        (** [Construction]/[Proportional]: equality with global-phase
            freedom; [Simulation]: same as [equivalent] (fidelity is
            phase-blind) *)
  ; peak_nodes : int
        (** largest intermediate matrix/vector DD observed during the
            check (for [Construction], the sum of the two final system
            matrices), a proxy for memory behaviour *)
  }

val default : t
val name : t -> string

(** [of_string s] parses what {!name} prints (modulo the shot syntax):
    the bare strategy names, [simulation:<shots>], and
    [stimuli:<basis|product|entangled>:<shots>]. *)
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

(** The strategy a portfolio candidate composed by
    [Analysis.Cost.compose_portfolio] runs as. *)
val of_candidate : Analysis.Cost.candidate -> t

(** [route a b] is the alternation order [--scheme auto] and a manifest
    [scheme = "auto"] run for the pair: {!Proportional} or {!Lookahead},
    as the cost profiles of both circuits recommend
    ([Analysis.Classify.route_application]). *)
val route : Circuit.Circ.t -> Circuit.Circ.t -> t

(** [route_profiles pa pb] is {!route} on cost profiles the caller
    already holds. *)
val route_profiles : Analysis.Cost.t -> Analysis.Cost.t -> t

(** [race_field ~width a b] is the candidate field of a portfolio race
    over the pair, between 1 and [width] strategies, best guess first:
    the pair's most dynamic classification and the cost profiles of
    both circuits compose it ([Analysis.Classify.compose_portfolio]). *)
val race_field : width:int -> Circuit.Circ.t -> Circuit.Circ.t -> t list

(** Raised by {!check} when a circuit still contains a non-unitary
    operation ([Reset] or a classically-controlled gate); carries the
    offending operation.  Dynamic circuits must go through the Section 4
    transformation first. *)
exception Non_unitary of Circuit.Op.t

(** [check ?seed p strategy g g'] compares two unitary circuits over the
    same number of qubits (measurements and barriers are ignored).
    [seed] perturbs the (otherwise instance-shape-derived)
    random-stimuli state of the simulative strategies, so batch runs can
    derive a distinct, reproducible stream per job from one
    manifest-level seed; it is ignored by the exact strategies.  Every
    strategy compiles both circuits once ({!Qsim.Dd_sim.compile}):
    {!Sequential}, {!Proportional} and {!Lookahead} are one alternation
    loop over the two signature arrays ([Dd.Mat.mul_sig]) that differ
    only in how they pick the next side, {!Construction} builds both
    system matrices ({!Qsim.Dd_sim.build_unitary}), and the simulative
    strategies run both programs on every stimulus
    ({!Qsim.Dd_sim.run}).  Raises [Invalid_argument] on register
    mismatch and {!Non_unitary} on non-unitary operations. *)
val check :
     ?seed:int
  -> Dd.Pkg.t
  -> t
  -> Circuit.Circ.t
  -> Circuit.Circ.t
  -> outcome
