(* OpenQASM 3 front-end tests: parsing the dynamic-circuit syntax, round
   trips through the printer, version dispatch, and cross-format
   agreement. *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let parse = Circuit.Qasm3_parser.parse

let test_parse_dynamic_program () =
  let c =
    parse
      {|OPENQASM 3.0;
        include "stdgates.inc";
        qubit[2] q;
        bit[2] c;
        h q[0];
        c[0] = measure q[0];
        reset q[0];
        if (c[0] == 1) { x q[1]; z q[1]; }
        if (c[0]) h q[0];
        c[1] = measure q[1];|}
  in
  Alcotest.(check int) "qubits" 2 c.Circ.num_qubits;
  Alcotest.(check int) "cbits" 2 c.Circ.num_cbits;
  Alcotest.(check bool) "dynamic" true (Circ.is_dynamic c);
  let counts = Circ.op_counts c in
  Alcotest.(check int) "measurements" 2 counts.Circ.measurements;
  Alcotest.(check int) "resets" 1 counts.Circ.resets;
  (* the block if distributes over both gates; if(c[0]) defaults to == 1 *)
  Alcotest.(check int) "conditioned" 3 counts.Circ.conditioned

let test_declarations_without_size () =
  let c =
    parse {|OPENQASM 3.0; qubit a; qubit[2] b; bit f; h a; cx a, b[1];
            f = measure a;|}
  in
  Alcotest.(check int) "flattened qubits" 3 c.Circ.num_qubits;
  Alcotest.(check int) "one bit" 1 c.Circ.num_cbits

let test_gate_definitions_v3 () =
  let c =
    parse
      {|OPENQASM 3.0;
        qubit[2] q;
        gate entangle a, b { h a; cx a, b; }
        entangle q[0], q[1];|}
  in
  Alcotest.(check int) "expanded" 2 (Circ.total_ops c)

let test_roundtrip_v3 () =
  List.iter
    (fun original ->
      let text = Circuit.Qasm3_printer.to_string original in
      let back = parse text in
      let d1 = Qsim.Statevector.extract_distribution original in
      let d2 = Qsim.Statevector.extract_distribution back in
      Util.check_distributions ("v3 round trip " ^ original.Circ.name) d1 d2)
    [ Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3
    ; Algorithms.Teleport.circuit ~prep:[ Gates.RY 0.7 ]
    ; Algorithms.Bv.dynamic [| true; false; true |]
    ]

let test_cross_format_equivalence () =
  (* the same circuit through both printers and both parsers must verify
     equivalent *)
  let original = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let via_v2 = Circuit.Qasm_parser.parse (Circuit.Qasm_printer.to_string original) in
  let via_v3 = parse (Circuit.Qasm3_printer.to_string original) in
  let r = Qcec.Verify.functional via_v2 via_v3 in
  Alcotest.(check bool) "v2 path = v3 path" true r.Qcec.Verify.equivalent

let test_version_dispatch () =
  let v2 = {|OPENQASM 2.0; qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];|} in
  let v3 = {|OPENQASM 3.0; qubit[1] q; bit[1] c; h q[0]; c[0] = measure q[0];|} in
  let a = Circuit.Qasm3_parser.parse_any v2 in
  let b = Circuit.Qasm3_parser.parse_any v3 in
  Alcotest.(check int) "v2 parsed" 2 (Circ.total_ops a);
  Alcotest.(check int) "v3 parsed" 2 (Circ.total_ops b);
  let d = Qcec.Verify.distribution a b in
  Alcotest.(check bool) "same behaviour" true d.Qcec.Verify.distributions_equal

let test_parse_errors_v3 () =
  let expect_error src =
    match parse src with
    | exception Circuit.Qasm_parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_error {|OPENQASM 3.0; qubit[1] q; c[0] = measure q[0];|} (* undeclared bit *);
  expect_error {|OPENQASM 3.0; qubit[1] q; bit[1] c; c[0] = x q[0];|};
  expect_error {|OPENQASM 3.0; qubit[1] q; if (q[0]) x q[0];|} (* qubit as condition *);
  (* statements that parse but build an invalid op fail on their own line *)
  let expect_error_at line body =
    Util.check_parse_error_at ~parse ~line
      ("OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[2] q;\nbit[2] c;\n" ^ body)
  in
  expect_error_at 6 "c[0] = measure q[0];\nif (c[0] == 2) x q[1];";
  expect_error_at 5 "cx q[0], q[0];";
  expect_error_at 5 "U(1/0, 0, 0) q[0];"

let suite =
  [ Alcotest.test_case "parse dynamic program" `Quick test_parse_dynamic_program
  ; Alcotest.test_case "unsized declarations" `Quick test_declarations_without_size
  ; Alcotest.test_case "gate definitions" `Quick test_gate_definitions_v3
  ; Alcotest.test_case "round trips" `Quick test_roundtrip_v3
  ; Alcotest.test_case "cross-format equivalence" `Quick test_cross_format_equivalence
  ; Alcotest.test_case "version dispatch" `Quick test_version_dispatch
  ; Alcotest.test_case "parse errors" `Quick test_parse_errors_v3
  ]
