(* OpenQASM parser and printer tests, including dynamic-circuit primitives
   and round trips. *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let parse = Circuit.Qasm_parser.parse

let test_parse_basic () =
  let c =
    parse
      {|OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        creg c[3];
        h q[0];
        cx q[0],q[1];
        ccx q[0],q[1],q[2];
        p(pi/4) q[2];
        u3(0.1,0.2,0.3) q[1];
        barrier q[0],q[1];
        measure q[0] -> c[0];|}
  in
  Alcotest.(check int) "qubits" 3 c.Circ.num_qubits;
  Alcotest.(check int) "cbits" 3 c.Circ.num_cbits;
  Alcotest.(check int) "ops" 7 (Circ.total_ops c);
  match c.Circ.ops with
  | Op.Apply { gate = Gates.H; _ }
    :: Op.Apply { gate = Gates.X; controls = [ { cq = 0; pos = true } ]; target = 1 }
    :: Op.Apply { gate = Gates.X; controls = [ _; _ ]; target = 2 }
    :: Op.Apply { gate = Gates.P angle; _ } :: _
    when Float.abs (angle -. (Float.pi /. 4.0)) < 1e-12 -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_expressions () =
  let c =
    parse
      {|qreg q[1];
        rz(-pi/2) q[0];
        rx(2*pi/8) q[0];
        ry(pi*(1/4+1/4)) q[0];
        p(1.5e-1) q[0];|}
  in
  match c.Circ.ops with
  | [ Op.Apply { gate = Gates.RZ a; _ }
    ; Op.Apply { gate = Gates.RX b; _ }
    ; Op.Apply { gate = Gates.RY c'; _ }
    ; Op.Apply { gate = Gates.P d; _ }
    ] ->
    Util.check_float "-pi/2" (-.Float.pi /. 2.0) a;
    Util.check_float "2pi/8" (Float.pi /. 4.0) b;
    Util.check_float "pi*(1/4+1/4)" (Float.pi /. 2.0) c';
    Util.check_float "scientific" 0.15 d
  | _ -> Alcotest.fail "unexpected ops"

let test_parse_dynamic () =
  let c =
    parse
      {|qreg q[2];
        creg c0[1];
        creg c1[1];
        h q[0];
        measure q[0] -> c0[0];
        reset q[0];
        if (c0 == 1) x q[1];
        measure q[1] -> c1[0];|}
  in
  Alcotest.(check bool) "dynamic" true (Circ.is_dynamic c);
  match List.nth c.Circ.ops 3 with
  | Op.Cond { cond = { bits = [ 0 ]; value = 1 }; op = Op.Apply { gate = Gates.X; _ } } ->
    ()
  | _ -> Alcotest.fail "if statement parsed wrong"

let test_parse_multibit_condition () =
  let c =
    parse
      {|qreg q[1];
        creg c[3];
        if (c == 5) x q[0];|}
  in
  match c.Circ.ops with
  | [ Op.Cond { cond = { bits = [ 0; 1; 2 ]; value = 5 }; _ } ] -> ()
  | _ -> Alcotest.fail "multi-bit condition parsed wrong"

let test_parse_errors () =
  let expect_error src =
    match parse src with
    | exception Circuit.Qasm_parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_error "qreg q[2]; bogus q[0];";
  expect_error "qreg q[1]; h q[5];";
  expect_error "qreg q[1]; h p[0];";
  expect_error "qreg q[1]; rx() q[0];";
  expect_error "h q[0];" (* undeclared register *);
  (* statements that parse but build an invalid op fail on their own line,
     not with [Invalid_argument] from [Circ.make] *)
  let expect_error_at line body =
    Util.check_parse_error_at ~parse ~line
      ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n" ^ body)
  in
  expect_error_at 5 "cx q[0],q[0];";
  expect_error_at 6 "h q[0];\nif(c==7) x q[1];" (* value needs 3 bits *);
  expect_error_at 5 "if(c==1) measure q[1] -> c[0];";
  expect_error_at 5 "u3(1/0,0,0) q[0];\nmeasure q[0] -> c[0];"

(* A failed load closes its descriptor and names the file.  Reading a
   directory opens it and then fails on the read, so a reader that does not
   close on that path leaks one descriptor per load. *)
let test_read_file_errors () =
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let before = open_fds () in
  for _ = 1 to 100 do
    match Circuit.Qasm3_parser.parse_any_file "." with
    | _ -> Alcotest.fail "a directory parsed as a circuit"
    | exception Sys_error msg ->
      Alcotest.(check bool) (msg ^ " names the path") true
        (String.starts_with ~prefix:".: " msg)
  done;
  Option.iter
    (fun n -> Alcotest.(check (option int)) "no descriptor leaked" (Some n) (open_fds ()))
    before

let test_roundtrip_static () =
  let original = Algorithms.Qft.static 5 in
  let text = Circuit.Qasm_printer.to_string original in
  let back = parse text in
  (* same unitary, up to the creg renaming the printer applies *)
  let p = Dd.Pkg.create () in
  let u = Qsim.Dd_sim.build_unitary p (Circ.strip_measurements original) in
  let u' =
    Dd.Pkg.with_root_m p u (fun _ ->
      Qsim.Dd_sim.build_unitary p (Circ.strip_measurements back))
  in
  Alcotest.(check bool) "same unitary after round trip" true (Dd.Mat.equal p u u')

let test_roundtrip_dynamic () =
  let original = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let text = Circuit.Qasm_printer.to_string original in
  let back = parse text in
  Alcotest.(check int) "same ops" (Circ.total_ops original) (Circ.total_ops back);
  (* identical measurement distribution *)
  let d1 = Qsim.Statevector.extract_distribution original in
  let d2 = Qsim.Statevector.extract_distribution back in
  Util.check_distributions "round-tripped dynamic circuit" d1 d2

let test_roundtrip_teleport () =
  let original = Algorithms.Teleport.circuit ~prep:[ Gates.RY 0.8; Gates.RZ 0.3 ] in
  let back = parse (Circuit.Qasm_printer.to_string original) in
  let d1 = Qsim.Statevector.extract_distribution original in
  let d2 = Qsim.Statevector.extract_distribution back in
  Util.check_distributions "round-tripped teleport" d1 d2

let test_gate_definitions () =
  let c =
    parse
      {|qreg q[3];
        gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }
        gate rot(theta) t { rz(theta/2) t; rx(-theta) t; }
        gate double(theta) u,v { rot(theta) u; rot(2*theta) v; }
        majority q[0],q[1],q[2];
        double(pi/2) q[0],q[2];|}
  in
  (* majority expands to 3 ops; double -> 2 rot -> 4 ops *)
  Alcotest.(check int) "expanded op count" 7 (Circ.total_ops c);
  (match List.nth c.Circ.ops 3 with
   | Op.Apply { gate = Gates.RZ a; target = 0; _ } ->
     Util.check_float "theta/2 substituted" (Float.pi /. 4.0) a
   | _ -> Alcotest.fail "rot body wrong");
  match List.nth c.Circ.ops 5 with
  | Op.Apply { gate = Gates.RZ a; target = 2; _ } ->
    Util.check_float "2*theta threaded" (Float.pi /. 2.0) a
  | _ -> Alcotest.fail "nested definition wrong"

let test_gate_definition_semantics () =
  (* a defined bell gate behaves like the inline circuit *)
  let defined =
    parse
      {|qreg q[2];
        gate bell a,b { h a; cx a,b; }
        bell q[0],q[1];|}
  in
  let inline = parse {|qreg q[2]; h q[0]; cx q[0],q[1];|} in
  let p = Dd.Pkg.create () in
  let u = Qsim.Dd_sim.build_unitary p defined in
  let u' = Dd.Pkg.with_root_m p u (fun _ -> Qsim.Dd_sim.build_unitary p inline) in
  Alcotest.(check bool) "same unitary" true (Dd.Mat.equal p u u')

let test_conditioned_defined_gate () =
  let c =
    parse
      {|qreg q[2];
        creg c[1];
        gate fx a,b { x a; x b; }
        measure q[0] -> c[0];
        if (c == 1) fx q[0],q[1];|}
  in
  (* the condition distributes over both expanded gates *)
  let conds = (Circ.op_counts c).Circ.conditioned in
  Alcotest.(check int) "condition distributed" 2 conds

let test_gate_definition_errors () =
  let expect_error src =
    match parse src with
    | exception Circuit.Qasm_parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_error "qreg q[1]; gate g a { h a; } g q[0],q[0];" (* arity *)
  ;
  expect_error "qreg q[1]; gate g(t) a { rz(t) a; } g q[0];" (* missing param *)
  ;
  expect_error "qreg q[1]; gate g a { h b; } g q[0];" (* unknown operand *)

let suite =
  [ Alcotest.test_case "parse basics" `Quick test_parse_basic
  ; Alcotest.test_case "gate definitions" `Quick test_gate_definitions
  ; Alcotest.test_case "gate definition semantics" `Quick
      test_gate_definition_semantics
  ; Alcotest.test_case "conditioned defined gate" `Quick test_conditioned_defined_gate
  ; Alcotest.test_case "gate definition errors" `Quick test_gate_definition_errors
  ; Alcotest.test_case "parse expressions" `Quick test_parse_expressions
  ; Alcotest.test_case "parse dynamic primitives" `Quick test_parse_dynamic
  ; Alcotest.test_case "parse multi-bit condition" `Quick test_parse_multibit_condition
  ; Alcotest.test_case "parse errors" `Quick test_parse_errors
  ; Alcotest.test_case "a failed load closes and names the file" `Quick test_read_file_errors
  ; Alcotest.test_case "round trip static" `Quick test_roundtrip_static
  ; Alcotest.test_case "round trip dynamic" `Quick test_roundtrip_dynamic
  ; Alcotest.test_case "round trip teleport" `Quick test_roundtrip_teleport
  ]
