(* Section 5 scheme tests: the DD-based branching extraction against the
   dense oracle, pruning, statistics, the Fig. 4 tree, and the parallel
   driver. *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let extract c = (Qsim.Extraction.run c).Qsim.Extraction.distribution

let test_paper_fig4_numbers () =
  (* theta = 3/16: first measurement is unbiased, and the probability of
     estimate |001> is 1/2 * 0.85 * 0.96 ~ 0.408 (paper Example 7) *)
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let tree = Qsim.Extraction.tree dyn in
  (match tree with
   | Qsim.Extraction.Branch { p0; p1; _ } ->
     Util.check_float ~tol:1e-9 "first checkpoint p0" 0.5 p0;
     Util.check_float ~tol:1e-9 "first checkpoint p1" 0.5 p1
   | Qsim.Extraction.Leaf _ -> Alcotest.fail "expected a branch");
  let dist = extract dyn in
  (* classical bits are indexed c0 c1 c2; estimate 0.c2c1c0 = 001 means
     c0 = 1, c1 = 0, c2 = 0 *)
  let p001 = List.assoc "100" dist in
  Util.check_float ~tol:1e-3 "P(estimate 001)" 0.4105 p001;
  let p010 = List.assoc "010" dist in
  Util.check_float ~tol:1e-3 "P(estimate 010)" 0.4105 p010;
  (* success probability of QPE is at least 4/pi^2 ~ 0.405 (paper 2.2) *)
  Alcotest.(check bool) "QPE success bound" true (p001 >= 4.0 /. (Float.pi *. Float.pi))

let test_exact_theta_deterministic () =
  (* representable phase: the algorithm succeeds with certainty and the
     extraction collapses to a single path *)
  let theta = 5.0 /. 8.0 in
  let dyn = Algorithms.Qpe.dynamic ~theta ~bits:3 in
  let r = Qsim.Extraction.run dyn in
  Alcotest.(check int) "single leaf" 1 r.Qsim.Extraction.stats.Qsim.Extraction.leaves;
  match r.Qsim.Extraction.distribution with
  | [ (bits, p) ] ->
    Util.check_float "probability 1" 1.0 p;
    (* 5/8 = 0.101: c2=1 c1=0 c0=1 *)
    Alcotest.(check string) "estimate bits" "101" bits
  | _ -> Alcotest.fail "expected a deterministic outcome"

let test_pruning_counts () =
  let theta = 5.0 /. 8.0 in
  let dyn = Algorithms.Qpe.dynamic ~theta ~bits:3 in
  let r = Qsim.Extraction.run dyn in
  (* every measurement and reset has a zero-probability side: all pruned *)
  Alcotest.(check bool) "pruned branches recorded" true
    (r.Qsim.Extraction.stats.Qsim.Extraction.pruned > 0)

let test_mass_conservation () =
  let dyn = Algorithms.Qft.dynamic 5 in
  let r = Qsim.Extraction.run dyn in
  Util.check_float "total mass 1" 1.0
    (Qcec.Distribution.mass r.Qsim.Extraction.distribution);
  Alcotest.(check int) "uniform over 32 outcomes" 32
    (List.length r.Qsim.Extraction.distribution)

let test_bare_reset_merges_branches () =
  (* reset of an unmeasured superposed qubit: both branches carry mass into
     the same classical assignment *)
  let c =
    Circ.make ~name:"bare" ~qubits:1 ~cbits:1
      [ Op.apply Gates.H 0
      ; Op.Reset 0
      ; Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ]
  in
  let dist = extract c in
  Util.check_distributions "reset then H is unbiased"
    [ ("0", 0.5); ("1", 0.5) ]
    dist;
  let dense = Qsim.Statevector.extract_distribution c in
  Util.check_distributions "matches dense oracle" dense dist

let test_ghz_parity () =
  let c = Algorithms.Ghz.with_parity_check 3 in
  let dist = extract c in
  (* parity bit (cbit 3) is always 0; data is 000 or 111 *)
  Util.check_distributions "GHZ parity distribution"
    [ ("0000", 0.5); ("1110", 0.5) ]
    dist

let test_teleport_distribution () =
  let prep = [ Gates.RY 1.1; Gates.RZ 0.4 ] in
  let tele = Algorithms.Teleport.circuit ~prep in
  let reference = Algorithms.Teleport.reference ~prep in
  let out = Qcec.Distribution.marginalize (extract tele) ~bits:[ 2 ] in
  let ref_dist = extract reference in
  Util.check_distributions "teleported marginal = direct preparation" ref_dist out;
  (* Bell measurement outcomes are uniform *)
  let bell = Qcec.Distribution.marginalize (extract tele) ~bits:[ 0; 1 ] in
  Util.check_distributions "Bell outcomes uniform"
    [ ("00", 0.25); ("01", 0.25); ("10", 0.25); ("11", 0.25) ]
    bell

let test_tree_structure () =
  let dyn = Algorithms.Bv.dynamic [| true; false |] in
  let rec depth = function
    | Qsim.Extraction.Leaf _ -> 0
    | Qsim.Extraction.Branch { zero; one; _ } ->
      let d side = match side with None -> 0 | Some t -> depth t in
      1 + max (d zero) (d one)
  in
  let t = Qsim.Extraction.tree dyn in
  (* 2 measurements + 1 reset = depth 3 along the surviving path *)
  Alcotest.(check int) "tree depth" 3 (depth t);
  let rendered = Fmt.str "%a" Qsim.Extraction.pp_tree t in
  Alcotest.(check bool) "render mentions measure" true
    (String.length rendered > 0 && String.sub rendered 0 7 = "measure")

let counts (r : Qsim.Extraction.result) =
  let st = r.Qsim.Extraction.stats in
  Qsim.Extraction.(st.leaves, st.branch_points, st.pruned)

let gate_applications (r : Qsim.Extraction.result) =
  r.Qsim.Extraction.stats.Qsim.Extraction.gate_applications

let test_parallel_matches_sequential () =
  let dyn = Algorithms.Qft.dynamic 6 in
  let seq = Qsim.Extraction.run ~domains:1 dyn in
  let par = Qsim.Extraction.run ~domains:4 dyn in
  Util.check_distributions "parallel = sequential"
    seq.Qsim.Extraction.distribution par.Qsim.Extraction.distribution;
  Alcotest.(check (triple int int int)) "same leaves, branch points and pruned"
    (counts seq) (counts par);
  List.iter
    (fun domains ->
      match Qsim.Extraction.run ~domains dyn with
      | _ -> Alcotest.failf "%d domains accepted" domains
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

(* Branches of this circuit outgrow the sweep floor, so the default
   package sweeps mid-walk; the distribution must still be the dense
   oracle's. *)
let test_extraction_sweeps () =
  let dyn = Algorithms.Random_circuit.dynamic ~seed:4 ~qubits:7 ~cbits:7 ~ops:90 in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let before = Obs.Metrics.snapshot () in
      let swept = Qsim.Extraction.run dyn in
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "the walk swept" true (Obs.Metrics.find d "dd.gc.runs" > 0);
      Util.check_distributions "= dense oracle"
        (Qsim.Statevector.extract_distribution dyn)
        swept.Qsim.Extraction.distribution)

(* Every kind of op a compiled program holds, including those
   [Random_circuit.dynamic] never emits: a barrier, a swap bare and under
   a condition, a two-bit condition whose value 2 holds only for c0 = 0,
   c1 = 1, a doubly-controlled gate with a negative control, a bare reset
   of the entangled q3 and a reset of the measured q0.  Each one moves the
   distribution: q3 and q0 are reused after their resets. *)
let all_op_kinds =
  let ctrl cq pos = { Op.cq; pos } in
  Circ.make ~name:"all_op_kinds" ~qubits:4 ~cbits:4
    [ Op.apply Gates.H 0
    ; Op.apply Gates.H 1
    ; Op.apply (Gates.RY 1.1) 2
    ; Op.controlled Gates.X ~control:0 ~target:3
    ; Op.Barrier [ 0; 1; 2; 3 ]
    ; Op.Swap (1, 2)
    ; Op.apply ~controls:[ ctrl 1 false; ctrl 2 true ] (Gates.RY 0.8) 0
    ; Op.Reset 3
    ; Op.Measure { qubit = 0; cbit = 0 }
    ; Op.Measure { qubit = 1; cbit = 1 }
    ; Op.Cond { cond = { bits = [ 0; 1 ]; value = 2 }; op = Op.apply (Gates.RY 0.6) 2 }
    ; Op.Cond { cond = { bits = [ 0 ]; value = 1 }; op = Op.Swap (1, 2) }
    ; Op.Measure { qubit = 2; cbit = 2 }
    ; Op.Reset 0
    ; Op.apply (Gates.RY 0.7) 3
    ; Op.controlled Gates.X ~control:3 ~target:0
    ; Op.Measure { qubit = 0; cbit = 3 }
    ]

let rec tree_leaves = function
  | Qsim.Extraction.Leaf { cvals; probability } -> [ (cvals, probability) ]
  | Branch { zero; one; _ } ->
    List.concat_map (function None -> [] | Some t -> tree_leaves t) [ zero; one ]

let test_all_op_kinds () =
  (* the dense oracle shares [cond_holds], so pin its bit order here *)
  let holds cvals =
    Qsim.Classical.cond_holds { bits = [ 0; 1 ]; value = 2 } (Bytes.of_string cvals)
  in
  Alcotest.(check (list bool)) "value 2 over [c0; c1]" [ false; true; false; false ]
    (List.map holds [ "00"; "01"; "10"; "11" ]);
  let dense = Qsim.Statevector.extract_distribution all_op_kinds in
  let check what d = Util.check_distributions (what ^ " = dense oracle") dense d in
  let run domains = (Qsim.Extraction.run ~domains all_op_kinds).Qsim.Extraction.distribution in
  check "run" (run 1);
  check "run ~domains:2" (run 2);
  check "tree leaves" (tree_leaves (Qsim.Extraction.tree all_op_kinds));
  let sample = Qsim.Sampler.run ~seed:5 ~shots:4000 all_op_kinds in
  let tv = Qcec.Distribution.total_variation dense (Qsim.Sampler.empirical sample) in
  Alcotest.(check bool) (Fmt.str "sampler TVD %.4f < 0.1" tv) true (tv < 0.1)

let prop_extraction_matches_dense =
  QCheck.Test.make ~name:"DD extraction = dense extraction (random dynamic)"
    ~count:80
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let dyn =
        Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:3 ~ops:15
      in
      let dd = extract dyn in
      let dense = Qsim.Statevector.extract_distribution dyn in
      Qcec.Distribution.total_variation dd dense < 1e-8)

let prop_mass_is_one =
  QCheck.Test.make ~name:"extracted mass is 1" ~count:80
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let dyn =
        Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:4 ~ops:18
      in
      Float.abs (Qcec.Distribution.mass (extract dyn) -. 1.0) < 1e-8)

(* A measure-terminal static circuit of at most 8 qubits that measures
   a random subset of its qubits, in random order, into at most as many
   random bits: bits are often shared, and a shared bit holds what its
   last measurement reads. *)
let measure_terminal seed =
  let st = Random.State.make [| seed |] in
  let qubits = 1 + Random.State.int st 8 in
  let cbits = 1 + Random.State.int st qubits in
  let body = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:(4 * qubits) in
  let measured =
    List.init qubits (fun q -> (Random.State.bits st, q))
    |> List.filter (fun _ -> Random.State.bool st)
    |> List.sort compare
    |> List.map (fun (_, q) -> Op.Measure { qubit = q; cbit = Random.State.int st cbits })
  in
  Circ.make ~name:"measure_terminal" ~qubits ~cbits (body.Circ.ops @ measured)

(* The static reference's readout against the dense oracle.  The bound
   is the package's interning tolerance, not 1e-12: the simulated DD
   state itself differs from the dense one by up to 1.6e-11 in total
   variation over seeds 0-20,000, while the readout matches the
   marginal of the state it reads to 5e-14. *)
let prop_readout_matches_dense =
  QCheck.Test.make ~name:"static readout = dense extraction (shared bits)" ~count:200
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let c = measure_terminal seed in
      let p = Dd.Pkg.create () in
      let dd =
        Qsim.Dd_sim.measured_distribution (Qsim.Dd_sim.simulate p c)
          ~n:c.Circ.num_qubits ~num_cbits:c.Circ.num_cbits
          ~measures:(Circ.measurements c) ()
      in
      Qcec.Distribution.total_variation dd (Qsim.Statevector.extract_distribution c)
      <= Dd.Pkg.tolerance)

(* Resets of qubits that X and CX keep in basis states: every branch
   point keeps one outcome. *)
let basis_resets seed =
  let st = Random.State.make [| seed |] in
  let q () = Random.State.int st 3 in
  let op _ =
    match Random.State.int st 3 with
    | 0 -> Op.apply Gates.X (q ())
    | 1 ->
      let c = q () in
      Op.controlled Gates.X ~control:c ~target:((c + 1 + Random.State.int st 2) mod 3)
    | _ -> Op.Reset (q ())
  in
  Circ.make ~name:"basis_resets" ~qubits:3 ~cbits:1 (List.init 12 op)

(* The gates a circuit applies before its first branch point. *)
let rec prefix_gates = function
  | (Op.Apply _ | Op.Swap _) :: rest -> 1 + prefix_gates rest
  | _ -> 0

(* On 2 and 4 domains the walk finds the one-domain distribution and
   counts the same leaves, branch points and pruned branches.  Where no
   branch point keeps both outcomes it never splits, so it applies the
   same gates too: dynamic BV-6 and a circuit whose only branch points
   are resets.  Dynamic QFT-6 splits at its first measurement on 2
   domains, and the lent subtree re-applies the gates before it. *)
let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel extraction = sequential" ~count:12
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let run domains c = Qsim.Extraction.run ~domains c in
      let dyn =
        Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:3 ~ops:12
      in
      let s = run 1 dyn in
      let unsplit c =
        let s = run 1 c in
        List.for_all
          (fun domains ->
            let p = run domains c in
            p.Qsim.Extraction.distribution = s.Qsim.Extraction.distribution
            && counts p = counts s
            && gate_applications p = gate_applications s)
          [ 1; 2; 4 ]
      in
      let qft = Algorithms.Qft.dynamic 6 in
      List.for_all
        (fun domains ->
          let p = run domains dyn in
          Qcec.Distribution.total_variation s.Qsim.Extraction.distribution
            p.Qsim.Extraction.distribution
          < 1e-9
          && counts p = counts s)
        [ 2; 4 ]
      && unsplit (Algorithms.Bv.dynamic (Algorithms.Bv.hidden_string ~seed 5))
      && unsplit (basis_resets seed)
      && gate_applications (run 2 qft)
         = gate_applications (run 1 qft) + prefix_gates qft.Circ.ops)

(* The walk roots every pending branch: with a compaction at every
   checkpoint, on one domain or two, it still meets the dense oracle. *)
let prop_compacting_extraction =
  QCheck.Test.make ~name:"DD extraction = dense extraction when every checkpoint compacts"
    ~count:30
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:3 ~ops:15 in
      let dense = Qsim.Statevector.extract_distribution dyn in
      List.for_all
        (fun domains ->
          let r = Util.compacting (fun () -> Qsim.Extraction.run ~domains dyn) in
          Qcec.Distribution.total_variation r.Qsim.Extraction.distribution dense < 1e-8)
        [ 1; 2 ])

let suite =
  [ Alcotest.test_case "paper Fig. 4 checkpoints" `Quick test_paper_fig4_numbers
  ; Alcotest.test_case "exact phase is deterministic" `Quick
      test_exact_theta_deterministic
  ; Alcotest.test_case "pruning statistics" `Quick test_pruning_counts
  ; Alcotest.test_case "mass conservation (dense QFT)" `Quick test_mass_conservation
  ; Alcotest.test_case "bare reset merges branches" `Quick
      test_bare_reset_merges_branches
  ; Alcotest.test_case "GHZ parity check" `Quick test_ghz_parity
  ; Alcotest.test_case "teleportation distribution" `Quick test_teleport_distribution
  ; Alcotest.test_case "branching tree structure" `Quick test_tree_structure
  ; Alcotest.test_case "parallel driver" `Quick test_parallel_matches_sequential
  ; Alcotest.test_case "sweeping walk" `Quick test_extraction_sweeps
  ; Alcotest.test_case "every op kind, both by walk and by sampler" `Quick
      test_all_op_kinds
  ; Util.qtest prop_extraction_matches_dense
  ; Util.qtest prop_mass_is_one
  ; Util.qtest prop_parallel_matches_sequential
  ; Util.qtest prop_compacting_extraction
  ; Util.qtest prop_readout_matches_dense
  ]
