(* Section 4 scheme tests: reset elimination, measurement deferral, and the
   semantic theorem behind the whole construction — the transformed circuit
   reproduces the dynamic circuit's measurement-outcome distribution. *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let test_reset_elimination_counts () =
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let out = Transform.Resets.eliminate dyn in
  Alcotest.(check int) "2 resets eliminated" 2 out.Transform.Resets.resets_eliminated;
  Alcotest.(check int) "4 qubits after" 4 out.Transform.Resets.circuit.Circ.num_qubits;
  Alcotest.(check int) "no resets remain" 0
    (Circ.op_counts out.Transform.Resets.circuit).Circ.resets;
  (* the work qubit ends on the last fresh wire *)
  Alcotest.(check int) "work qubit final wire" 3 out.Transform.Resets.wire_of.(0);
  Alcotest.(check int) "eigenstate qubit untouched" 1 out.Transform.Resets.wire_of.(1)

let test_reset_on_fresh_wire_targets () =
  (* ops after a reset must act on the fresh wire, ops before on the old *)
  let c =
    Circ.make ~name:"r" ~qubits:1 ~cbits:2
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.Reset 0
      ; Op.apply Gates.X 0
      ; Op.Measure { qubit = 0; cbit = 1 }
      ]
  in
  let out = Transform.Resets.eliminate c in
  match out.Transform.Resets.circuit.Circ.ops with
  | [ Op.Apply { target = 0; _ }
    ; Op.Measure { qubit = 0; cbit = 0 }
    ; Op.Apply { target = 1; gate = Gates.X; _ }
    ; Op.Measure { qubit = 1; cbit = 1 }
    ] -> ()
  | _ -> Alcotest.fail "rerouting after reset is wrong"

let test_deferral_moves_measurements_to_end () =
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let noreset = (Transform.Resets.eliminate dyn).Transform.Resets.circuit in
  let out = Transform.Deferral.defer noreset in
  Alcotest.(check int) "3 measurements deferred" 3
    out.Transform.Deferral.measurements_deferred;
  Alcotest.(check int) "3 conditions replaced" 3
    out.Transform.Deferral.conditions_replaced;
  let ops = out.Transform.Deferral.circuit.Circ.ops in
  let rec check_suffix = function
    | [] -> Alcotest.fail "no ops"
    | Op.Measure _ :: rest ->
      List.iter
        (function Op.Measure _ -> () | _ -> Alcotest.fail "op after measurement")
        rest
    | _ :: rest -> check_suffix rest
  in
  check_suffix ops;
  Alcotest.(check bool) "result is static" false
    (Circ.is_dynamic out.Transform.Deferral.circuit)

let test_deferral_rejects_reuse () =
  let c =
    Circ.make ~name:"bad" ~qubits:1 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 0 }; Op.apply Gates.H 0 ]
  in
  match Transform.Deferral.defer c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of gate on measured qubit"

let test_deferral_rejects_double_write () =
  let c =
    Circ.make ~name:"bad" ~qubits:2 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 0 }; Op.Measure { qubit = 1; cbit = 0 } ]
  in
  match Transform.Deferral.defer c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of double classical write"

let test_deferral_rejects_unmeasured_condition () =
  let c =
    Circ.make ~name:"bad" ~qubits:1 ~cbits:1
      [ Op.if_bit ~bit:0 ~value:true (Op.apply Gates.X 0) ]
  in
  match Transform.Deferral.defer c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of condition on unwritten bit"

let test_condition_polarity () =
  (* an if on value 0 must become a negative control *)
  let c =
    Circ.make ~name:"neg" ~qubits:2 ~cbits:1
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.if_bit ~bit:0 ~value:false (Op.apply Gates.X 1)
      ]
  in
  let out = Transform.Deferral.defer c in
  let has_negative_control =
    List.exists
      (function
        | Op.Apply { controls = [ { cq = 0; pos = false } ]; target = 1; _ } -> true
        | _ -> false)
      out.Transform.Deferral.circuit.Circ.ops
  in
  Alcotest.(check bool) "negative control" true has_negative_control

let test_transform_paper_example () =
  let pair = Algorithms.Qpe.paper_example () in
  let out = Transform.Dynamic.to_static pair.Algorithms.Pair.dynamic_circuit in
  Alcotest.(check int) "qubits: 2 + 2 resets = 4 (Fig. 3a)" 4
    out.Transform.Dynamic.circuit.Circ.num_qubits;
  (* Example 6: the transformed circuit equals the static QPE *)
  let aligned =
    Algorithms.Pair.align_transformed pair out.Transform.Dynamic.circuit
  in
  let p = Dd.Pkg.create () in
  let u = Qsim.Dd_sim.build_unitary p (Circ.strip_measurements aligned) in
  let u' =
    Dd.Pkg.with_root_m p u (fun _ ->
      Qsim.Dd_sim.build_unitary p
        (Circ.strip_measurements pair.Algorithms.Pair.static_circuit))
  in
  Alcotest.(check bool) "transformed IQPE = static QPE (exactly)" true
    (Dd.Mat.equal p u u')

(* The core semantic property: for any dynamic circuit, the transformed
   static circuit's measured distribution equals the branching extraction of
   the dynamic circuit.  This is the theorem that makes Section 4 sound. *)
let prop_transform_preserves_distribution =
  QCheck.Test.make ~name:"transform preserves measurement distribution" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let dyn =
        Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:3 ~ops:14
      in
      let static = Transform.Dynamic.transform dyn in
      let dyn_dist = Qsim.Statevector.extract_distribution dyn in
      let p = Dd.Pkg.create () in
      let final = Qsim.Dd_sim.simulate p static in
      let static_dist =
        Qsim.Dd_sim.measured_distribution p final ~n:static.Circ.num_qubits
          ~num_cbits:static.Circ.num_cbits ~measures:(Circ.measurements static) ()
      in
      Qcec.Distribution.total_variation dyn_dist static_dist < 1e-8)

let prop_transform_output_is_static =
  QCheck.Test.make ~name:"transform output contains no dynamic primitive" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let dyn =
        Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:3 ~ops:16
      in
      let static = Transform.Dynamic.transform dyn in
      not (Circ.is_dynamic static))

let prop_qubit_arithmetic =
  QCheck.Test.make ~name:"n_dyn + resets = n_transformed" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let dyn =
        Algorithms.Random_circuit.dynamic ~seed ~qubits:4 ~cbits:3 ~ops:12
      in
      let out = Transform.Dynamic.to_static dyn in
      out.Transform.Dynamic.circuit.Circ.num_qubits
      = dyn.Circ.num_qubits + out.Transform.Dynamic.resets_eliminated)

let suite =
  [ Alcotest.test_case "reset elimination counts" `Quick test_reset_elimination_counts
  ; Alcotest.test_case "rerouting to fresh wires" `Quick test_reset_on_fresh_wire_targets
  ; Alcotest.test_case "deferral moves measurements" `Quick
      test_deferral_moves_measurements_to_end
  ; Alcotest.test_case "deferral rejects qubit reuse" `Quick test_deferral_rejects_reuse
  ; Alcotest.test_case "deferral rejects double write" `Quick
      test_deferral_rejects_double_write
  ; Alcotest.test_case "deferral rejects unmeasured condition" `Quick
      test_deferral_rejects_unmeasured_condition
  ; Alcotest.test_case "condition polarity" `Quick test_condition_polarity
  ; Alcotest.test_case "paper Fig. 3 example" `Quick test_transform_paper_example
  ; Util.qtest prop_transform_preserves_distribution
  ; Util.qtest prop_transform_output_is_static
  ; Util.qtest prop_qubit_arithmetic
  ]
