(* Test helpers used across suites: approximate comparisons between
   dense oracles and decision-diagram results. *)

module Cx = Cxnum.Cx

let cx_close ?(tol = 1e-9) a b = Cx.approx_eq ~tol a b

let check_cx ?(tol = 1e-9) msg expected actual =
  if not (cx_close ~tol expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Cx.to_string expected)
      (Cx.to_string actual)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Matrices equal up to a global phase factor. *)
let matrices_equal_up_to_phase ?(tol = 1e-8) a b =
  let dim = Array.length a in
  let phase = ref None in
  let ok = ref (Array.length b = dim) in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      if !ok then begin
        let x = a.(r).(c) and y = b.(r).(c) in
        let mx = Cx.abs x and my = Cx.abs y in
        if Float.abs (mx -. my) > tol then ok := false
        else if mx > tol then begin
          let ratio = Cx.div y x in
          match !phase with
          | None -> phase := Some ratio
          | Some ph -> if not (cx_close ~tol ph ratio) then ok := false
        end
      end
    done
  done;
  !ok

let matrices_equal ?(tol = 1e-8) a b =
  let dim = Array.length a in
  Array.length b = dim
  && begin
       let ok = ref true in
       for r = 0 to dim - 1 do
         for c = 0 to dim - 1 do
           if not (cx_close ~tol a.(r).(c) b.(r).(c)) then ok := false
         done
       done;
       !ok
     end

let check_distributions ?(eps = 1e-9) msg expected actual =
  let tv = Qcec.Distribution.total_variation expected actual in
  if tv > eps then
    Alcotest.failf "%s: distributions differ (TVD %.3g)@.expected:@.%s@.actual:@.%s" msg
      tv
      (Fmt.str "%a" Qcec.Distribution.pp expected)
      (Fmt.str "%a" Qcec.Distribution.pp actual)

(* DD of a circuit vs the dense oracle. *)
let check_circuit_unitary ?(tol = 1e-8) msg (c : Circuit.Circ.t) =
  let p = Dd.Pkg.create () in
  let dd = Qsim.Dd_sim.build_unitary p (Circuit.Circ.strip_measurements c) in
  let dense = Qsim.Statevector.unitary_matrix c in
  let materialized = Dd.Mat.to_array p dd ~n:c.Circuit.Circ.num_qubits in
  if not (matrices_equal ~tol dense materialized) then
    Alcotest.failf "%s: DD unitary differs from dense oracle" msg

let qtest = QCheck_alcotest.to_alcotest

(* [compacting f] runs [f ()] with a safepoint hook that compacts the
   package at every checkpoint: the most aggressive sweep schedule, under
   which an edge held unrooted across a checkpoint loses canonicity. *)
let compacting f =
  Dd.Pkg.set_safepoint_hook (Some Dd.Pkg.compact);
  Fun.protect ~finally:(fun () -> Dd.Pkg.set_safepoint_hook None) f

(* [parse src] must fail with a [Parse_error] located at [line]. *)
let check_parse_error_at ~parse ~line src =
  match parse src with
  | exception Circuit.Qasm_parser.Parse_error (msg, l) ->
    Alcotest.(check int) (Fmt.str "%S fails on line %d (%s)" src line msg) line l
  | _ -> Alcotest.failf "expected a parse error for %S" src

(* [contains ~sub s]: [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0
