(* Portfolio racing tests: the three stimuli classes (determinism,
   shape, tableau ground truth), first-definitive-verdict-wins racing
   with per-candidate seeds derived via [Verify.candidate_seed], loser
   cancellation at safepoints without leaked DD roots, the
   phase-blindness guard (a simulative all-shots-pass must never claim
   the race), and the engine / manifest wiring of the portfolio knob. *)

module Stimuli = Qsim.Stimuli
module Job = Engine.Job
module Pool = Engine.Pool
module Pair = Algorithms.Pair

let bv_pair seed = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed 4)

(* -- stimuli classes ---------------------------------------------------- *)

let draws ?seed kind ~num_qubits ~shots =
  let st = Stimuli.rng ?seed ~num_qubits ~shots () in
  List.init shots (fun _ -> Stimuli.draw st kind ~num_qubits)

let all_kinds = [ Stimuli.Classical; Stimuli.Local_quantum; Stimuli.Global_quantum ]

let test_stimuli_deterministic () =
  List.iter
    (fun kind ->
      let a = draws ~seed:11 kind ~num_qubits:5 ~shots:6 in
      let b = draws ~seed:11 kind ~num_qubits:5 ~shots:6 in
      Alcotest.(check bool)
        (Stimuli.kind_name kind ^ ": same seed, same stream") true (a = b);
      let c = draws ~seed:12 kind ~num_qubits:5 ~shots:6 in
      Alcotest.(check bool)
        (Stimuli.kind_name kind ^ ": different seed, different stream") true
        (a <> c))
    all_kinds

let test_stimuli_shapes () =
  let st = Stimuli.rng ~seed:3 ~num_qubits:4 ~shots:9 () in
  (match Stimuli.draw st Stimuli.Classical ~num_qubits:4 with
   | Stimuli.Basis_state bits ->
     Alcotest.(check int) "one bit per qubit" 4 (Array.length bits)
   | _ -> Alcotest.fail "classical stimuli draw basis states");
  (match Stimuli.draw st Stimuli.Local_quantum ~num_qubits:4 with
   | Stimuli.Product_state amps ->
     Alcotest.(check int) "one amplitude pair per qubit" 4 (Array.length amps);
     Array.iter
       (fun (a, b) ->
         Alcotest.(check (float 1e-9)) "each qubit state is normalized" 1.0
           (Cxnum.Cx.abs2 a +. Cxnum.Cx.abs2 b))
       amps
   | _ -> Alcotest.fail "local stimuli draw product states");
  match Stimuli.draw st Stimuli.Global_quantum ~num_qubits:4 with
  | Stimuli.Stabilizer_state { bits; prep } ->
    Alcotest.(check int) "starts from a full basis state" 4 (Array.length bits);
    Alcotest.(check int) "preparation depth is 2n" (Stimuli.prep_depth 4)
      (List.length prep);
    List.iter
      (fun (op : Circuit.Op.t) ->
        match op with
        | Circuit.Op.Apply { gate; _ } ->
          Alcotest.(check bool) "preparation uses only Clifford gates" true
            (Qsim.Stabilizer.is_clifford_gate gate)
        | _ -> Alcotest.fail "preparation contains a non-gate operation")
      prep
  | _ -> Alcotest.fail "global stimuli draw stabilizer preparations"

let test_stimuli_tableau () =
  let st = Stimuli.rng ~seed:5 ~num_qubits:5 ~shots:3 () in
  let classical = Stimuli.draw st Stimuli.Classical ~num_qubits:5 in
  let local = Stimuli.draw st Stimuli.Local_quantum ~num_qubits:5 in
  let global = Stimuli.draw st Stimuli.Global_quantum ~num_qubits:5 in
  Alcotest.(check bool) "classical stimuli replay on the tableau" true
    (Stimuli.tableau ~num_qubits:5 classical <> None);
  Alcotest.(check bool) "global stimuli replay on the tableau" true
    (Stimuli.tableau ~num_qubits:5 global <> None);
  Alcotest.(check bool) "local stimuli have no tableau form" true
    (Stimuli.tableau ~num_qubits:5 local = None)

(* the strategy layer materializes the same streams: a seeded simulative
   check is bit-for-bit reproducible *)
let test_stimuli_check_reproducible () =
  let pair = bv_pair 0 in
  List.iter
    (fun kind ->
      let run () =
        Qcec.Verify.functional
          ~strategy:(Qcec.Strategy.Random_stimuli { kind; shots = 4 })
          ~seed:17 ~perm:pair.Pair.dyn_to_static pair.Pair.static_circuit
          pair.Pair.dynamic_circuit
      in
      let a = run () and b = run () in
      Alcotest.(check bool) "seeded simulative runs agree" true
        (a.Qcec.Verify.equivalent = b.Qcec.Verify.equivalent
        && a.Qcec.Verify.peak_nodes = b.Qcec.Verify.peak_nodes))
    [ Qcec.Strategy.Basis; Qcec.Strategy.Product; Qcec.Strategy.Entangled ]

(* -- the race ----------------------------------------------------------- *)

let race_candidates =
  [ (Qcec.Strategy.Proportional, "classic")
  ; (Qcec.Strategy.Random_stimuli { kind = Qcec.Strategy.Entangled; shots = 4 }, "classic")
  ; (Qcec.Strategy.Lookahead, "classic")
  ]

let test_race_verdict_and_seeds () =
  let pair = bv_pair 0 in
  let r =
    Qcec.Verify.portfolio ~candidates:race_candidates ~seed:40
      ~perm:pair.Pair.dyn_to_static pair.Pair.static_circuit
      pair.Pair.dynamic_circuit
  in
  Alcotest.(check bool) "the race verdict is correct" true
    r.Qcec.Verify.winner.Qcec.Verify.equivalent;
  Alcotest.(check bool)
    "an equivalent pair with exact candidates settles definitively" true
    r.Qcec.Verify.winner_definitive;
  Alcotest.(check int) "one report per candidate" (List.length race_candidates)
    (List.length r.Qcec.Verify.candidates);
  List.iteri
    (fun i (c : Qcec.Verify.candidate_report) ->
      Alcotest.(check (option int)) "candidate seed uses the derivation rule"
        (Some (Qcec.Verify.candidate_seed ~seed:40 ~candidate:i))
        c.Qcec.Verify.c_seed)
    r.Qcec.Verify.candidates;
  (* the mix must never collide with the manifest's sibling-job rule:
     job j's candidate 1 and job j+1's candidate 0 get distinct keys *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "candidate streams are disjoint from sibling jobs"
        false
        (Qcec.Verify.candidate_seed ~seed:s ~candidate:1
        = Qcec.Verify.candidate_seed ~seed:(s + 1) ~candidate:0))
    [ 0; 1; 40; 1234 ];
  let w = List.nth r.Qcec.Verify.candidates r.Qcec.Verify.winner_index in
  (match w.Qcec.Verify.c_outcome with
   | `Won -> ()
   | _ -> Alcotest.fail "the winner's report must be `Won");
  Alcotest.(check bool) "winner strategy matches its report" true
    (r.Qcec.Verify.winner_strategy = w.Qcec.Verify.c_strategy);
  (* every candidate, run solo, agrees with the race verdict *)
  List.iter
    (fun (strategy, _) ->
      let solo =
        Qcec.Verify.functional ~strategy ~seed:40 ~perm:pair.Pair.dyn_to_static
          pair.Pair.static_circuit pair.Pair.dynamic_circuit
      in
      Alcotest.(check bool)
        ("solo " ^ Qcec.Strategy.name strategy ^ " agrees with the race") true
        (solo.Qcec.Verify.equivalent
        = r.Qcec.Verify.winner.Qcec.Verify.equivalent))
    race_candidates

let test_race_rejects_bad_input () =
  let pair = bv_pair 1 in
  (try
     ignore
       (Qcec.Verify.portfolio ~candidates:[] pair.Pair.static_circuit
          pair.Pair.dynamic_circuit);
     Alcotest.fail "empty candidate list must be rejected"
   with Invalid_argument _ -> ());
  (* a race where every candidate fails re-raises the first failure *)
  try
    ignore
      (Qcec.Verify.portfolio
         ~candidates:[ (Qcec.Strategy.Proportional, "no-such-backend") ]
         pair.Pair.static_circuit pair.Pair.dynamic_circuit);
    Alcotest.fail "unknown backend must propagate out of the race"
  with Invalid_argument _ -> ()

(* Slow loser vs. fast winner: the sequential candidate sleeps at each
   of its (many) safepoints, guaranteeing the proportional candidate —
   exact, hence allowed to claim the race — publishes first; the loser
   must then unwind at its next safepoint.  (A simulative candidate could
   not play the fast role here: its all-shots-pass on an equivalent pair
   is probabilistic and never claims the race.) *)
let test_loser_cancellation () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    (fun () ->
      let c = (Algorithms.Qft.make 5).Pair.static_circuit in
      let before = Obs.Metrics.find (Obs.Metrics.snapshot ()) "portfolio.cancelled" in
      let slow = Qcec.Strategy.name Qcec.Strategy.Sequential in
      let r =
        Qcec.Verify.portfolio
          ~candidates:
            [ (Qcec.Strategy.Sequential, "classic")
            ; (Qcec.Strategy.Proportional, "classic")
            ]
          ~seed:1
          ~safepoint:(fun ~candidate ~live_nodes:_ ->
            if candidate = slow then Unix.sleepf 0.005)
          c c
      in
      Alcotest.(check bool) "the fast candidate wins" true
        (r.Qcec.Verify.winner_index = 1
        && r.Qcec.Verify.winner.Qcec.Verify.equivalent
        && r.Qcec.Verify.winner_definitive);
      Alcotest.(check int) "the slow candidate is cancelled" 1
        r.Qcec.Verify.races_cancelled;
      (match
         (List.nth r.Qcec.Verify.candidates 0).Qcec.Verify.c_outcome
       with
       | `Cancelled -> ()
       | o ->
         Alcotest.failf "expected `Cancelled, got %a"
           Qcec.Verify.pp_candidate_outcome o);
      let after = Obs.Metrics.find (Obs.Metrics.snapshot ()) "portfolio.cancelled" in
      Alcotest.(check int) "portfolio.cancelled counts the loser" 1
        (after - before))

(* Candidate 0 runs on the calling domain and candidate 1 on a helper
   domain.  Candidate 1 waits at its safepoints until candidate 0
   has reported one, so both report before the race ends; candidate 0
   sleeps at each of its own, so candidate 1 wins. *)
let test_race_runs_candidate_0_on_caller () =
  let c = (Algorithms.Qft.make 5).Pair.static_circuit in
  let first = Qcec.Strategy.name Qcec.Strategy.Sequential in
  let seen = Atomic.make [] in
  let rec record x =
    let l = Atomic.get seen in
    if not (Atomic.compare_and_set seen l (x :: l)) then record x
  in
  let domains_of name =
    List.sort_uniq compare
      (List.filter_map (fun (c, d) -> if c = name then Some d else None) (Atomic.get seen))
  in
  let r =
    Qcec.Verify.portfolio
      ~candidates:
        [ (Qcec.Strategy.Sequential, "classic"); (Qcec.Strategy.Proportional, "classic") ]
      ~seed:1
      ~safepoint:(fun ~candidate ~live_nodes:_ ->
        record (candidate, (Domain.self () :> int));
        if candidate = first then Unix.sleepf 0.002
        else begin
          let give_up = Unix.gettimeofday () +. 5.0 in
          while domains_of first = [] && Unix.gettimeofday () < give_up do
            Unix.sleepf 0.001
          done
        end)
      c c
  in
  let caller = (Domain.self () :> int) in
  Alcotest.(check bool) "the race verdict is correct" true
    r.Qcec.Verify.winner.Qcec.Verify.equivalent;
  Alcotest.(check (list int)) "candidate 0 runs on the calling domain" [ caller ]
    (domains_of first);
  match domains_of (Qcec.Strategy.name Qcec.Strategy.Proportional) with
  | [ d ] -> Alcotest.(check bool) "candidate 1 runs on a spawned domain" true (d <> caller)
  | ds -> Alcotest.failf "candidate 1 reported from %d domains" (List.length ds)

(* Each candidate's work is counted once in the calling domain's
   registry, and in a scope around the race: candidate 0 records there
   as it runs, and candidate 1's helper hands its reading over at join.
   The caller built a package first, so a reading that took the caller's
   whole registry would read 3, and so would folding candidate 0's work
   in a second time. *)
let test_race_metrics_counted_once () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    (fun () ->
      let pair = bv_pair 2 in
      let a = pair.Pair.static_circuit and b = pair.Pair.dynamic_circuit in
      let perm = pair.Pair.dyn_to_static in
      ignore (Qcec.Verify.functional ~perm a b);
      let created () = Obs.Metrics.find (Obs.Metrics.snapshot ()) "dd.pkg.created" in
      let before = created () in
      let _, race =
        Obs.Scope.run (fun () ->
          Qcec.Verify.portfolio
            ~candidates:
              [ (Qcec.Strategy.Proportional, "classic"); (Qcec.Strategy.Lookahead, "classic") ]
            ~perm a b)
      in
      Alcotest.(check int) "the race adds one package per candidate" 2
        (created () - before);
      Alcotest.(check int) "the race's own reading counts both" 2
        (Obs.Metrics.find race.Obs.Scope.metrics "dd.pkg.created"))

(* A phase-only S on the last wire of QFT-10: basis stimuli cannot see
   it, so the exact candidates must refute it. *)
let test_race_refutes_high_wire_phase () =
  let n = 10 in
  let qft = Circuit.Circ.strip_measurements (Algorithms.Qft.static n) in
  let mutant =
    Circuit.Circ.make ~name:"qft_s" ~qubits:n ~cbits:qft.Circuit.Circ.num_cbits
      (qft.Circuit.Circ.ops @ [ Circuit.Op.apply Circuit.Gates.S (n - 1) ])
  in
  let candidates =
    List.map (fun s -> (s, "classic")) (Qcec.Strategy.race_field ~width:2 qft mutant)
  in
  let r = Qcec.Verify.portfolio ~candidates ~seed:3 qft mutant in
  Alcotest.(check bool) "the race refutes the mutant" false
    r.Qcec.Verify.winner.Qcec.Verify.equivalent;
  Alcotest.(check bool) "the refutation is definitive" true
    r.Qcec.Verify.winner_definitive

(* The soundness trap the race must not fall into: classical basis
   stimuli are deterministically blind to phase-only discrepancies
   (state fidelity is |<a|b>|^2 — S|b> and |b> have fidelity 1 for every
   basis state b), so a lone S gate vs the identity passes every basis
   shot.  The cheap simulative candidate finishes first, but its
   all-shots-pass must NOT claim the race: the exact decider, slowed at
   each safepoint to make the ordering deterministic, must still refute
   the pair. *)
let s_vs_identity () =
  ( Circuit.Circ.make ~name:"s" ~qubits:1 ~cbits:0
      [ Circuit.Op.apply Circuit.Gates.S 0 ]
  , Circuit.Circ.make ~name:"id" ~qubits:1 ~cbits:0 [] )

let test_simulative_pass_cannot_win () =
  let s, id = s_vs_identity () in
  let slow = Qcec.Strategy.name Qcec.Strategy.Proportional in
  let r =
    Qcec.Verify.portfolio
      ~candidates:
        [ ( Qcec.Strategy.Random_stimuli
              { kind = Qcec.Strategy.Basis; shots = 8 }
          , "classic" )
        ; (Qcec.Strategy.Proportional, "classic")
        ]
      ~seed:7
      ~safepoint:(fun ~candidate ~live_nodes:_ ->
        if candidate = slow then Unix.sleepf 0.005)
      s id
  in
  Alcotest.(check bool) "the race refutes the phase-only pair" false
    r.Qcec.Verify.winner.Qcec.Verify.equivalent;
  Alcotest.(check bool) "the refutation is definitive" true
    r.Qcec.Verify.winner_definitive;
  Alcotest.(check int) "the exact decider wins" 1 r.Qcec.Verify.winner_index;
  match (List.nth r.Qcec.Verify.candidates 0).Qcec.Verify.c_outcome with
  | `Finished -> ()
  | o ->
    Alcotest.failf "the blind simulative candidate must finish (lost), got %a"
      Qcec.Verify.pp_candidate_outcome o

(* With only basis-stimuli candidates in the field, the same pair can
   only produce the flagged fallback: all shots agree, nobody claims the
   race, and the result is marked probabilistic instead of posing as a
   definitive 'equivalent'. *)
let test_all_simulative_race_is_probabilistic () =
  let s, id = s_vs_identity () in
  let r =
    Qcec.Verify.portfolio
      ~candidates:
        [ ( Qcec.Strategy.Random_stimuli
              { kind = Qcec.Strategy.Basis; shots = 4 }
          , "classic" )
        ; ( Qcec.Strategy.Random_stimuli
              { kind = Qcec.Strategy.Basis; shots = 8 }
          , "classic" )
        ]
      ~seed:7 s id
  in
  Alcotest.(check bool) "all basis shots pass on the phase-only pair" true
    r.Qcec.Verify.winner.Qcec.Verify.equivalent;
  Alcotest.(check bool) "...but the verdict is flagged as probabilistic" false
    r.Qcec.Verify.winner_definitive;
  match
    (List.nth r.Qcec.Verify.candidates r.Qcec.Verify.winner_index)
      .Qcec.Verify.c_outcome
  with
  | `Won -> ()
  | o ->
    Alcotest.failf "the fallback winner's report must be `Won, got %a"
      Qcec.Verify.pp_candidate_outcome o

exception Stop

(* cancellation unwinds through the strategy code without leaving rooted
   DD edges behind: after a mid-run abort, compaction reclaims the
   package down to its cached identity chain (which [compact] keeps by
   design) and no registered roots remain *)
let test_cancellation_leaks_no_roots () =
  let c = (Algorithms.Qft.make 5).Pair.static_circuit in
  let baseline =
    let p = Dd.Pkg.create () in
    ignore (Dd.Pkg.ident p c.Circuit.Circ.num_qubits);
    Dd.Pkg.compact p;
    Dd.Pkg.live_nodes p
  in
  let p = Dd.Pkg.create () in
  let count = ref 0 in
  Dd.Pkg.set_safepoint_hook
    (Some
       (fun _ ->
         incr count;
         if !count = 5 then raise Stop));
  Fun.protect
    ~finally:(fun () -> Dd.Pkg.set_safepoint_hook None)
    (fun () ->
      match Qcec.Strategy.check p Qcec.Strategy.Sequential c c with
      | _ -> Alcotest.fail "expected the safepoint hook to cancel the check"
      | exception Stop -> ());
  Alcotest.(check int) "no roots remain registered after cancellation" 0
    (Dd.Pkg.live_roots p);
  Dd.Pkg.compact p;
  Alcotest.(check bool) "compaction reclaims everything but the identity chain"
    true
    (Dd.Pkg.live_nodes p <= baseline)

(* -- engine wiring ------------------------------------------------------ *)

let test_pool_portfolio_job () =
  let pair = bv_pair 0 in
  let spec =
    Job.circuits ~perm:pair.Pair.dyn_to_static ~portfolio:3 ~seed:9 ~index:0
      pair.Pair.static_circuit pair.Pair.dynamic_circuit
  in
  let batch = Pool.run { Pool.default_config with Pool.workers = 2 } [ spec ] in
  match (List.hd batch.Pool.results).Job.outcome with
  | Job.Verdict v ->
    Alcotest.(check bool) "portfolio job verifies" true v.Job.equivalent;
    Alcotest.(check bool) "verdict strategy records the race winner" true
      (String.length v.Job.strategy > 10
      && String.sub v.Job.strategy 0 10 = "portfolio(")
  | Job.Failed { message; _ } -> Alcotest.failf "portfolio job failed: %s" message

(* seeds derive via [Verify.candidate_seed], and portfolio verdict
   flags are independent of worker count (the winning
   candidate may differ run to run; the verdict may not).  An
   all-simulative race on an equivalent pair settles on the flagged
   probabilistic fallback — no candidate may claim it. *)
let prop_portfolio_determinism =
  QCheck.Test.make ~count:4
    ~name:"portfolio: derived seeds and worker-count-independent verdicts"
    QCheck.(int_bound 999)
    (fun seed ->
      let pair = bv_pair (seed mod 5) in
      let candidates =
        List.map
          (fun s -> (s, Dd.Registry.default))
          [ Qcec.Strategy.Random_stimuli { kind = Qcec.Strategy.Basis; shots = 3 }
          ; Qcec.Strategy.Random_stimuli
              { kind = Qcec.Strategy.Entangled; shots = 3 }
          ]
      in
      let r =
        Qcec.Verify.portfolio ~candidates ~seed ~perm:pair.Pair.dyn_to_static
          pair.Pair.static_circuit pair.Pair.dynamic_circuit
      in
      List.iteri
        (fun i (c : Qcec.Verify.candidate_report) ->
          if c.Qcec.Verify.c_seed
             <> Some (Qcec.Verify.candidate_seed ~seed ~candidate:i)
          then
            QCheck.Test.fail_reportf "candidate %d ran under the wrong seed" i)
        r.Qcec.Verify.candidates;
      if r.Qcec.Verify.winner_definitive then
        QCheck.Test.fail_reportf
          "an all-simulative pass must be flagged probabilistic";
      let specs =
        List.init 3 (fun index ->
          let p = bv_pair index in
          Job.circuits ~perm:p.Pair.dyn_to_static ~portfolio:2
            ~seed:(seed + index) ~index p.Pair.static_circuit
            p.Pair.dynamic_circuit)
      in
      let flags workers =
        List.map
          (fun (res : Job.result) ->
            match res.Job.outcome with
            | Job.Verdict v -> Some (v.Job.equivalent, v.Job.exactly_equal)
            | Job.Failed _ -> None)
          (Pool.run { Pool.default_config with Pool.workers } specs).Pool.results
      in
      let w1 = flags 1 and w2 = flags 2 and w4 = flags 4 in
      if not (List.for_all Option.is_some w1) then
        QCheck.Test.fail_reportf "a portfolio job failed";
      w1 = w2 && w2 = w4 && r.Qcec.Verify.winner.Qcec.Verify.equivalent)

let test_manifest_portfolio () =
  let doc =
    Obs.Json.of_string
      {|{ "schema": "qcec-manifest/v1",
          "defaults": { "portfolio": 4 },
          "jobs": [
            { "a": "a.qasm", "b": "b.qasm" },
            { "a": "c.qasm", "b": "d.qasm", "portfolio": 0 },
            { "a": "e.qasm", "b": "f.qasm", "portfolio": 2 } ] }|}
  in
  (match Engine.Manifest.of_json doc with
   | Error e -> Alcotest.fail e
   | Ok m ->
     let p i = (List.nth m.Engine.Manifest.jobs i).Job.portfolio in
     Alcotest.(check (option int)) "defaults apply" (Some 4) (p 0);
     Alcotest.(check (option int)) "per-job 0 disables the default" None (p 1);
     Alcotest.(check (option int)) "per-job width overrides" (Some 2) (p 2));
  match
    Engine.Manifest.of_json
      (Obs.Json.of_string
         {|{ "schema": "qcec-manifest/v1",
             "jobs": [ { "a": "a.qasm", "b": "b.qasm", "portfolio": 1 } ] }|})
  with
  | Ok _ -> Alcotest.fail "portfolio width 1 must be rejected"
  | Error _ -> ()

(* the analysis layer composes the field: the cost model's solo pick
   always leads; on dynamic pairs the exact alternation orders lead and
   the simulative candidates trail (they race the transformed pair) *)
let test_compose_portfolio () =
  let pair = bv_pair 0 in
  let pa = Analysis.Cost.profile pair.Pair.static_circuit in
  let pb = Analysis.Cost.profile pair.Pair.dynamic_circuit in
  let lead = Analysis.Cost.recommend pa pb in
  let field =
    Analysis.Classify.compose_portfolio ~width:5 Analysis.Classify.Unitary pa pb
  in
  Alcotest.(check int) "width bounds the field" 5 (List.length field);
  (match (List.hd field, lead) with
   | Analysis.Cost.Proportional_candidate, Analysis.Cost.Proportional_order
   | Analysis.Cost.Lookahead_candidate, Analysis.Cost.Lookahead_order -> ()
   | _ -> Alcotest.fail "the cost model's solo pick must lead the field");
  let dyn =
    Analysis.Classify.compose_portfolio ~width:5 Analysis.Classify.Dynamic pa pb
  in
  let is_exact = function
    | Analysis.Cost.Proportional_candidate | Analysis.Cost.Lookahead_candidate ->
      true
    | _ -> false
  in
  (match dyn with
   | a :: b :: rest ->
     Alcotest.(check bool) "dynamic pairs: both exact orders lead the field"
       true
       (is_exact a && is_exact b);
     Alcotest.(check bool) "dynamic pairs: simulative candidates trail" true
       (rest <> [] && List.for_all (fun c -> not (is_exact c)) rest)
   | _ -> Alcotest.fail "dynamic field too narrow");
  Alcotest.(check int) "dynamic field still fills the width" 5 (List.length dyn)

(* the kind that gates the field is the pair's most dynamic one, whichever
   side carries it *)
let test_pair_kind () =
  let pair = bv_pair 0 in
  let unitary = Circuit.Circ.strip_measurements pair.Pair.static_circuit in
  let dynamic = pair.Pair.dynamic_circuit in
  let kind a b = Analysis.Classify.kind_name (Analysis.Classify.pair_kind a b) in
  Alcotest.(check string) "unitary with dynamic" "dynamic" (kind unitary dynamic);
  Alcotest.(check string) "dynamic with unitary" "dynamic" (kind dynamic unitary);
  Alcotest.(check string) "unitary with unitary" "unitary" (kind unitary unitary)

let suite =
  [ Alcotest.test_case "stimuli streams are seeded and deterministic" `Quick
      test_stimuli_deterministic
  ; Alcotest.test_case "stimuli classes have the right shape" `Quick
      test_stimuli_shapes
  ; Alcotest.test_case "stabilizer stimuli replay on the tableau" `Quick
      test_stimuli_tableau
  ; Alcotest.test_case "seeded simulative checks reproduce" `Quick
      test_stimuli_check_reproducible
  ; Alcotest.test_case "race verdict, reports and derived seeds" `Quick
      test_race_verdict_and_seeds
  ; Alcotest.test_case "race input validation and error propagation" `Quick
      test_race_rejects_bad_input
  ; Alcotest.test_case "losers cancel at safepoints" `Quick
      test_loser_cancellation
  ; Alcotest.test_case "candidate 0 runs on the calling domain" `Quick
      test_race_runs_candidate_0_on_caller
  ; Alcotest.test_case "race metrics count each candidate once" `Quick
      test_race_metrics_counted_once
  ; Alcotest.test_case "the race refutes QFT-10 with an S on wire 9" `Quick
      test_race_refutes_high_wire_phase
  ; Alcotest.test_case "a simulative all-shots-pass cannot claim the race"
      `Quick test_simulative_pass_cannot_win
  ; Alcotest.test_case "all-simulative races are flagged probabilistic" `Quick
      test_all_simulative_race_is_probabilistic
  ; Alcotest.test_case "cancellation leaks no rooted DD edges" `Quick
      test_cancellation_leaks_no_roots
  ; Alcotest.test_case "pool runs portfolio jobs" `Quick test_pool_portfolio_job
  ; QCheck_alcotest.to_alcotest prop_portfolio_determinism
  ; Alcotest.test_case "manifest portfolio knob" `Quick test_manifest_portfolio
  ; Alcotest.test_case "analysis composes the candidate field" `Quick
      test_compose_portfolio
  ; Alcotest.test_case "pair kind is the most dynamic side" `Quick test_pair_kind
  ]
