(* Decision-diagram package tests: every operation is cross-checked against
   the dense state-vector / matrix oracle on small circuits, plus structural
   properties (canonicity, node sharing, normalization). *)

module Cx = Cxnum.Cx
module Gates = Circuit.Gates
module Op = Circuit.Op

let gate_matrix g = Gates.matrix g

let test_basis_states () =
  let p = Dd.Pkg.create () in
  let s = Dd.Pkg.basis_state p 3 (fun q -> q = 1) in
  let arr = Dd.Vec.to_array p s ~n:3 in
  Array.iteri
    (fun i z ->
      let expected = if i = 2 then Cx.one else Cx.zero in
      Util.check_cx (Fmt.str "amp %d" i) expected z)
    arr

let test_product_state () =
  let p = Dd.Pkg.create () in
  let a = (Cx.of_float 0.6, Cx.of_float 0.8) in
  let s = Dd.Pkg.product_state p [| a; (Cx.one, Cx.zero) |] in
  let arr = Dd.Vec.to_array p s ~n:2 in
  Util.check_cx "p00" (Cx.of_float 0.6) arr.(0);
  Util.check_cx "p01" (Cx.of_float 0.8) arr.(1);
  Util.check_cx "p10" Cx.zero arr.(2);
  Util.check_float "normalized" 1.0 (Dd.Vec.norm p s)

let test_vec_roundtrip () =
  let p = Dd.Pkg.create () in
  let v =
    [| Cx.make 0.1 0.2; Cx.make (-0.3) 0.0; Cx.make 0.0 0.5; Cx.make 0.7 (-0.1) |]
  in
  let dd = Dd.Vec.of_array p v in
  let back = Dd.Vec.to_array p dd ~n:2 in
  Array.iteri (fun i z -> Util.check_cx (Fmt.str "amp %d" i) v.(i) z) back

let test_mat_roundtrip () =
  let p = Dd.Pkg.create () in
  let m =
    [| [| Cx.one; Cx.zero; Cx.i; Cx.zero |]
     ; [| Cx.zero; Cx.make 0.5 0.5; Cx.zero; Cx.zero |]
     ; [| Cx.minus_one; Cx.zero; Cx.make 0.0 (-1.0); Cx.one |]
     ; [| Cx.zero; Cx.of_float 2.0; Cx.zero; Cx.make 0.25 0.0 |]
    |]
  in
  let dd = Dd.Mat.of_array p m in
  let back = Dd.Mat.to_array p dd ~n:2 in
  Alcotest.(check bool) "matrix round trip" true (Util.matrices_equal m back)

let test_gate_construction_matches_dense () =
  (* every gate, on each target of a 3-qubit register *)
  let gates =
    [ Gates.I; Gates.X; Gates.Y; Gates.Z; Gates.H; Gates.S; Gates.Sdg; Gates.T
    ; Gates.Tdg; Gates.SX; Gates.SXdg; Gates.RX 0.7; Gates.RY (-1.2); Gates.RZ 2.5
    ; Gates.P 0.9; Gates.U2 (0.3, -0.8); Gates.U3 (1.1, 0.4, -2.2)
    ]
  in
  List.iter
    (fun g ->
      for target = 0 to 2 do
        let c =
          Circuit.Circ.make ~name:"g" ~qubits:3 ~cbits:0 [ Op.apply g target ]
        in
        Util.check_circuit_unitary (Fmt.str "%s on q%d" (Gates.name g) target) c
      done)
    gates

let test_controlled_gates_match_dense () =
  let cases =
    [ Op.controlled Gates.X ~control:0 ~target:2
    ; Op.controlled Gates.X ~control:2 ~target:0
    ; Op.controlled (Gates.P 0.77) ~control:1 ~target:2
    ; Op.controlled Gates.H ~control:2 ~target:1
    ; Op.Apply
        { gate = Gates.X
        ; controls = [ { cq = 0; pos = false } ]
        ; target = 1
        } (* negative control *)
    ; Op.Apply
        { gate = Gates.Y
        ; controls = [ { cq = 2; pos = false }; { cq = 0; pos = true } ]
        ; target = 1
        }
    ; Op.Apply
        { gate = Gates.X
        ; controls = [ { cq = 0; pos = true }; { cq = 1; pos = true } ]
        ; target = 2
        } (* toffoli *)
    ; Op.Swap (0, 2)
    ]
  in
  List.iteri
    (fun i op ->
      let c = Circuit.Circ.make ~name:"c" ~qubits:3 ~cbits:0 [ op ] in
      Util.check_circuit_unitary (Fmt.str "controlled case %d" i) c)
    cases

let test_identity_properties () =
  let p = Dd.Pkg.create () in
  let id4 = Dd.Pkg.ident p 4 in
  Alcotest.(check bool) "I is identity" true
    (Dd.Mat.is_identity p id4 ~n:4 ~up_to_phase:false);
  Util.check_cx "tr I4 = 16" (Cx.of_float 16.0) (Dd.Mat.trace p id4 ~n:4);
  let h = Dd.Pkg.gate p ~n:4 ~controls:[] ~target:2 (gate_matrix Gates.H) in
  Alcotest.(check bool) "H*H = I" true
    (Dd.Mat.is_identity p (Dd.Mat.mul p h h) ~n:4 ~up_to_phase:false);
  let ha = Dd.Mat.adjoint p h in
  Alcotest.(check bool) "H = H^dagger" true (Dd.Mat.equal p h ha)

let test_canonicity_sharing () =
  (* the same state built along two different gate sequences must be the
     same node *)
  let p = Dd.Pkg.create () in
  let n = 2 in
  let h0 = Dd.Pkg.gate p ~n ~controls:[] ~target:0 (gate_matrix Gates.H) in
  let h1 = Dd.Pkg.gate p ~n ~controls:[] ~target:1 (gate_matrix Gates.H) in
  let s1 = Dd.Mat.apply p h1 (Dd.Mat.apply p h0 (Dd.Pkg.zero_state p n)) in
  let s2 = Dd.Mat.apply p h0 (Dd.Mat.apply p h1 (Dd.Pkg.zero_state p n)) in
  Alcotest.(check bool) "same node for |++>" true
    (match (s1.Dd.Types.vt, s2.Dd.Types.vt) with
     | Some a, Some b -> a == b
     | _ -> false);
  Util.check_cx "same weight" (Cxnum.Cx_table.to_cx s1.Dd.Types.vw)
    (Cxnum.Cx_table.to_cx s2.Dd.Types.vw)

let test_probabilities_and_project () =
  let p = Dd.Pkg.create () in
  let n = 2 in
  (* (|00> + |11>)/sqrt2 *)
  let h = Dd.Pkg.gate p ~n ~controls:[] ~target:0 (gate_matrix Gates.H) in
  let cx = Dd.Pkg.gate p ~n ~controls:[ (0, true) ] ~target:1 (gate_matrix Gates.X) in
  let bell = Dd.Mat.apply p cx (Dd.Mat.apply p h (Dd.Pkg.zero_state p n)) in
  let p0, p1 = Dd.Vec.probabilities p bell 1 in
  Util.check_float "bell p0" 0.5 p0;
  Util.check_float "bell p1" 0.5 p1;
  let collapsed = Dd.Vec.project p bell 0 1 in
  let arr = Dd.Vec.to_array p collapsed ~n in
  Util.check_cx "collapse to |11>" Cx.one arr.(3);
  Util.check_float "renormalized" 1.0 (Dd.Vec.norm p collapsed)

let test_project_zero_probability_rejected () =
  let p = Dd.Pkg.create () in
  let s = Dd.Pkg.zero_state p 2 in
  Alcotest.check_raises "projecting impossible outcome"
    (Invalid_argument "Vec.project: outcome has zero probability") (fun () ->
      ignore (Dd.Vec.project p s 0 1))

let test_inner_product () =
  let p = Dd.Pkg.create () in
  let plus = Dd.Pkg.product_state p [| (Cx.of_float Cx.sqrt2_inv, Cx.of_float Cx.sqrt2_inv) |] in
  let minus = Dd.Pkg.product_state p [| (Cx.of_float Cx.sqrt2_inv, Cx.of_float (-.Cx.sqrt2_inv)) |] in
  Util.check_cx "<+|-> = 0" Cx.zero (Dd.Vec.inner_product p plus minus);
  Util.check_float "<+|+> = 1" 1.0 (Cx.abs (Dd.Vec.inner_product p plus plus));
  Util.check_float "fidelity orthogonal" 0.0 (Dd.Vec.fidelity p plus minus)

let test_deep_chain_weights () =
  (* the regression behind the relative interning: a 128-qubit Hadamard
     layer has root weight (1/sqrt2)^128 ~ 5e-20 and must not collapse *)
  let p = Dd.Pkg.create () in
  let n = 128 in
  let layer =
    List.fold_left
      (fun acc t ->
        Dd.Mat.mul p (Dd.Pkg.gate p ~n ~controls:[] ~target:t (gate_matrix Gates.H)) acc)
      (Dd.Pkg.ident p n)
      (List.init n (fun q -> q))
  in
  Alcotest.(check bool) "H^128 layer is not zero" false
    (Dd.Types.medge_is_zero layer);
  let squared = Dd.Mat.mul p layer layer in
  Alcotest.(check bool) "H^128 squared is identity" true
    (Dd.Mat.is_identity p squared ~n ~up_to_phase:false)

let test_node_counts () =
  let p = Dd.Pkg.create () in
  let n = 20 in
  let s = Dd.Pkg.zero_state p n in
  Alcotest.(check int) "basis state has n nodes" n (Dd.Vec.node_count s);
  let id = Dd.Pkg.ident p n in
  Alcotest.(check int) "identity has n nodes" n (Dd.Mat.node_count id)

let test_process_fidelity () =
  let p = Dd.Pkg.create () in
  let n = 3 in
  let x1 = Dd.Pkg.gate p ~n ~controls:[] ~target:1 (gate_matrix Gates.X) in
  let z1 = Dd.Pkg.gate p ~n ~controls:[] ~target:1 (gate_matrix Gates.Z) in
  Util.check_float "pf(X,X)=1" 1.0 (Dd.Mat.process_fidelity p x1 x1 ~n);
  Util.check_float "pf(X,Z)=0" 0.0 (Dd.Mat.process_fidelity p x1 z1 ~n)

(* property: random circuit DD simulation equals dense simulation *)
let prop_simulation_matches_dense =
  QCheck.Test.make ~name:"DD simulation = dense simulation (random circuits)"
    ~count:60
    QCheck.(pair (int_range 1 5) (int_range 0 10000))
    (fun (qubits, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:25 in
      let p = Dd.Pkg.create () in
      let dd = Dd.Vec.to_array p (Qsim.Dd_sim.simulate p c) ~n:qubits in
      let dense = (Qsim.Statevector.run_unitary c).Qsim.Statevector.amps in
      Array.for_all2 (fun a b -> Util.cx_close ~tol:1e-8 a b) dd dense)

let prop_unitary_matches_dense =
  QCheck.Test.make ~name:"DD unitary = dense unitary (random circuits)" ~count:40
    QCheck.(pair (int_range 1 4) (int_range 0 10000))
    (fun (qubits, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:15 in
      let p = Dd.Pkg.create () in
      let dd =
        Dd.Mat.to_array p (Qsim.Dd_sim.build_unitary p c) ~n:qubits
      in
      Util.matrices_equal ~tol:1e-8 dd (Qsim.Statevector.unitary_matrix c))

let prop_probabilities_sum_to_one =
  QCheck.Test.make ~name:"measurement probabilities sum to 1" ~count:40
    QCheck.(triple (int_range 1 5) (int_range 0 1000) (int_range 0 4))
    (fun (qubits, seed, q) ->
      QCheck.assume (q < qubits);
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:20 in
      let p = Dd.Pkg.create () in
      let s = Qsim.Dd_sim.simulate p c in
      let p0, p1 = Dd.Vec.probabilities p s q in
      Float.abs (p0 +. p1 -. 1.0) < 1e-9)

let prop_add_commutes =
  QCheck.Test.make ~name:"vector addition commutes" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2) ->
      let qubits = 3 in
      let p = Dd.Pkg.create () in
      let mk seed =
        Qsim.Dd_sim.simulate p (Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:10)
      in
      let a = mk s1 and b = mk s2 in
      let ab = Dd.Vec.add p a b and ba = Dd.Vec.add p b a in
      let x = Dd.Vec.to_array p ab ~n:qubits and y = Dd.Vec.to_array p ba ~n:qubits in
      Array.for_all2 (fun u v -> Util.cx_close ~tol:1e-9 u v) x y)

let prop_adjoint_involution =
  QCheck.Test.make ~name:"matrix adjoint is an involution" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 1000))
    (fun (qubits, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:12 in
      let p = Dd.Pkg.create () in
      let u = Qsim.Dd_sim.build_unitary p c in
      Dd.Mat.equal p u (Dd.Mat.adjoint p (Dd.Mat.adjoint p u)))

let prop_unitary_times_adjoint_is_identity =
  QCheck.Test.make ~name:"U * U^dagger = I" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 1000))
    (fun (qubits, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:12 in
      let p = Dd.Pkg.create () in
      let u = Qsim.Dd_sim.build_unitary p c in
      Dd.Mat.is_identity p
        (Dd.Mat.mul p u (Dd.Mat.adjoint p u))
        ~n:qubits ~up_to_phase:false)

let prop_mul_associative_on_states =
  QCheck.Test.make ~name:"(A B) v = A (B v)" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2) ->
      let qubits = 3 in
      let p = Dd.Pkg.create () in
      let u c = Qsim.Dd_sim.build_unitary p (Algorithms.Random_circuit.unitary ~seed:c ~qubits ~gates:8) in
      let a = u s1 and b = u s2 in
      let v = Qsim.Dd_sim.simulate p (Algorithms.Random_circuit.unitary ~seed:(s1 + s2) ~qubits ~gates:8) in
      let lhs = Dd.Mat.apply p (Dd.Mat.mul p a b) v in
      let rhs = Dd.Mat.apply p a (Dd.Mat.apply p b v) in
      Dd.Vec.fidelity p lhs rhs > 1.0 -. 1e-9)

(* [(A B)^d] and [B^d A^d] for the 3-qubit, 8-gate random circuits of
   seeds [s1] and [s2], built in one package, as dense matrices, with
   whether the two DDs are one node. *)
let adjoint_products s1 s2 =
  let qubits = 3 in
  let p = Dd.Pkg.create () in
  let u c = Qsim.Dd_sim.build_unitary p (Algorithms.Random_circuit.unitary ~seed:c ~qubits ~gates:8) in
  let a = u s1 and b = u s2 in
  let lhs = Dd.Mat.adjoint p (Dd.Mat.mul p a b) in
  let rhs = Dd.Mat.mul p (Dd.Mat.adjoint p b) (Dd.Mat.adjoint p a) in
  ( Dd.Mat.to_array p lhs ~n:qubits
  , Dd.Mat.to_array p rhs ~n:qubits
  , Dd.Mat.equal p lhs rhs )

(* Compared densely, as "DD unitary = dense unitary" does: [Mat.equal]
   compares node identity, and the complex table's 1e-10 tolerance is not
   transitive, so equal products can intern to different nodes (13 of the
   1,002,001 seed pairs, the case below among them). *)
let prop_adjoint_reverses_products =
  QCheck.Test.make ~name:"(A B)^d = B^d A^d" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2) ->
      let lhs, rhs, _ = adjoint_products s1 s2 in
      Util.matrices_equal ~tol:1e-8 lhs rhs)

(* Seeds (776, 30): the two products differ by at most 1e-16 per entry,
   yet intern to different nodes.  The second assertion pins this known
   non-canonical representative: a change that makes interning canonical
   flips it, and must then flip the assertion. *)
let test_adjoint_products_non_canonical () =
  let lhs, rhs, same_node = adjoint_products 776 30 in
  Alcotest.(check bool) "dense (A B)^d = B^d A^d" true (Util.matrices_equal ~tol:1e-8 lhs rhs);
  Alcotest.(check bool) "known non-canonical representative: Mat.equal is false" false
    same_node

let prop_inner_product_unitary_invariant =
  QCheck.Test.make ~name:"<Ua|Ub> = <a|b>" ~count:30
    QCheck.(triple (int_range 0 1000) (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2, s3) ->
      let qubits = 3 in
      let p = Dd.Pkg.create () in
      let v c = Qsim.Dd_sim.simulate p (Algorithms.Random_circuit.unitary ~seed:c ~qubits ~gates:8) in
      let a = v s1 and b = v s2 in
      let u = Qsim.Dd_sim.build_unitary p (Algorithms.Random_circuit.unitary ~seed:s3 ~qubits ~gates:8) in
      let before = Dd.Vec.inner_product p a b in
      let after = Dd.Vec.inner_product p (Dd.Mat.apply p u a) (Dd.Mat.apply p u b) in
      Util.cx_close ~tol:1e-8 before after)

let test_dot_export () =
  let p = Dd.Pkg.create () in
  let s = Dd.Pkg.basis_state p 2 (fun _ -> true) in
  let text = Fmt.str "%a" Dd.Dot.vector s in
  Alcotest.(check bool) "dot has digraph" true
    (String.length text > 0
     && String.sub text 0 7 = "digraph");
  let m = Dd.Pkg.ident p 2 in
  let text = Fmt.str "%a" Dd.Dot.matrix m in
  Alcotest.(check bool) "matrix dot nonempty" true (String.length text > 20)

let test_repeated_apply_hits_cache () =
  (* the same (matrix node, vector node) pair must be served from the mv
     compute cache on the second application *)
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let p = Dd.Pkg.create () in
      let n = 3 in
      let h = Dd.Pkg.gate p ~n ~controls:[] ~target:1 (gate_matrix Gates.H) in
      let s = Dd.Pkg.zero_state p n in
      let before = Obs.Metrics.snapshot () in
      let first = Dd.Mat.apply p h s in
      let second = Dd.Mat.apply p h s in
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "cached apply is pointer-identical" true
        (first.Dd.Types.vw == second.Dd.Types.vw && first.Dd.Types.vt == second.Dd.Types.vt);
      Alcotest.(check bool) "repeated mat-vec multiply reports cache hits" true
        (Obs.Metrics.find d "dd.cache.mv.hits" > 0))

let test_cache_replace () =
  let c : string Dd.Cache.t = Dd.Cache.create "testcache" in
  Dd.Cache.add c 1 0 0 0 "a";
  Dd.Cache.add c 1 0 0 0 "b";
  (* re-computed keys must shadow, not pile up as duplicate bindings *)
  Alcotest.(check int) "replace keeps one binding" 1 (Dd.Cache.length c);
  Alcotest.(check (option string)) "latest value wins" (Some "b")
    (Dd.Cache.find c 1 0 0 0);
  Dd.Cache.clear c;
  Alcotest.(check int) "clear empties" 0 (Dd.Cache.length c)

(* Keys that differ in one position only must not alias.  Thousands of
   such keys per position fill more entries than the table has buckets,
   so many of them share a chain, where only the key comparison tells
   them apart. *)
let test_cache_keys_and_clear () =
  let c : int Dd.Cache.t = Dd.Cache.create "testcache" in
  let keys = 5000 in
  let key pos x = Array.init 4 (fun i -> if i = pos then x else 7 * (i + 1)) in
  let add k v = Dd.Cache.add c k.(0) k.(1) k.(2) k.(3) v in
  let find k = Dd.Cache.find c k.(0) k.(1) k.(2) k.(3) in
  let check_all () =
    for pos = 0 to 3 do
      for x = 0 to keys - 1 do
        let expected = if x = 7 * (pos + 1) then 0 else (pos * keys) + x in
        if find (key pos x) <> Some expected then
          Alcotest.failf "key %d at position %d: wrong binding" x pos
      done
    done
  in
  for pos = 0 to 3 do
    for x = 0 to keys - 1 do
      (* every position's run passes through the shared base key *)
      add (key pos x) (if x = 7 * (pos + 1) then 0 else (pos * keys) + x)
    done
  done;
  check_all ();
  Alcotest.(check int) "one entry per distinct key" ((4 * keys) - 3) (Dd.Cache.length c);
  Dd.Cache.clear c;
  Alcotest.(check int) "clear after growth empties" 0 (Dd.Cache.length c);
  for x = 0 to keys - 1 do
    if find (key 0 x) <> None then Alcotest.failf "key %d survived the clear" x
  done;
  (* the cleared table is usable again *)
  add (key 2 3) 42;
  Alcotest.(check (option int)) "a new binding after clear" (Some 42) (find (key 2 3));
  Alcotest.(check int) "and only that one" 1 (Dd.Cache.length c)

(* Reference node counts: a walk that remembers node ids in a [Hashtbl],
   as the counts did before nodes carried walk stamps. *)
let ref_count_v (e : Dd.Types.vedge) =
  let seen = Hashtbl.create 64 in
  let rec go (e : Dd.Types.vedge) =
    match e.Dd.Types.vt with
    | Some n when not (Dd.Types.vedge_is_zero e || Hashtbl.mem seen n.Dd.Types.vid) ->
      Hashtbl.add seen n.Dd.Types.vid ();
      go n.Dd.Types.v0;
      go n.Dd.Types.v1
    | _ -> ()
  in
  go e;
  Hashtbl.length seen

let ref_count_m (e : Dd.Types.medge) =
  let seen = Hashtbl.create 64 in
  let rec go (e : Dd.Types.medge) =
    match e.Dd.Types.mt with
    | Some n when not (Dd.Types.medge_is_zero e || Hashtbl.mem seen n.Dd.Types.mid) ->
      Hashtbl.add seen n.Dd.Types.mid ();
      List.iter go [ n.Dd.Types.m00; n.Dd.Types.m01; n.Dd.Types.m10; n.Dd.Types.m11 ]
    | _ -> ()
  in
  go e;
  Hashtbl.length seen

(* A gate on the top qubit leaves the subgraphs below it shared, so
   counting the two DDs in turn revisits nodes an earlier walk marked. *)
let prop_node_counts_match_reference =
  QCheck.Test.make ~name:"node counts = Hashtbl reference (shared, alternating, compacted)"
    ~count:40
    QCheck.(pair (int_range 2 5) (int_range 0 10000))
    (fun (qubits, seed) ->
      let p = Dd.Pkg.create () in
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:20 in
      let h = gate_matrix Gates.H and top = qubits - 1 in
      let ru = Dd.Pkg.root_m p (Qsim.Dd_sim.build_unitary p c) in
      let rv = Dd.Pkg.root_v p (Qsim.Dd_sim.simulate p c) in
      let ru' =
        Dd.Pkg.root_m p
          (Dd.Mat.mul_gate_left p ~n:qubits ~controls:[] ~target:top h (Dd.Pkg.mroot_edge ru))
      in
      let rv' =
        Dd.Pkg.root_v p
          (Dd.Mat.apply_gate p ~n:qubits ~controls:[] ~target:top h (Dd.Pkg.vroot_edge rv))
      in
      let m r =
        let e = Dd.Pkg.mroot_edge r in
        (Dd.Mat.node_count e, ref_count_m e)
      and v r =
        let e = Dd.Pkg.vroot_edge r in
        (Dd.Vec.node_count e, ref_count_v e)
      in
      let counts () = [ m ru; m ru'; v rv; v rv'; m ru; m ru'; v rv; v rv' ] in
      let before = counts () in
      (* garbage for the sweep, then the same counts on the survivors *)
      let junk = Algorithms.Random_circuit.unitary ~seed:(seed + 1) ~qubits ~gates:20 in
      ignore (Qsim.Dd_sim.simulate p junk);
      Dd.Pkg.compact p;
      let after = counts () in
      List.for_all (fun (n, r) -> n = r) (before @ after) && before = after)

(* Every node that survives a sweep is still the canonical one: building
   it again from its own successors must find it in the rebuilt table. *)
let test_sweep_survivors_stay_canonical () =
  let p = Dd.Pkg.create () in
  let n = 4 in
  let build seed =
    Qsim.Dd_sim.build_unitary p (Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:30)
  in
  Dd.Pkg.with_root_m p (build 11) (fun r ->
      ignore (build 12);
      Dd.Pkg.compact p;
      let rebuilt = ref 0 in
      let rec visit (e : Dd.Types.medge) =
        match e.Dd.Types.mt with
        | Some nd when not (Dd.Types.medge_is_zero e) ->
          let again =
            Dd.Pkg.make_mnode p nd.Dd.Types.mvar nd.Dd.Types.m00 nd.Dd.Types.m01
              nd.Dd.Types.m10 nd.Dd.Types.m11
          in
          (match again.Dd.Types.mt with
           | Some nd' when nd' == nd -> incr rebuilt
           | _ -> Alcotest.failf "surviving node %d was built anew" nd.Dd.Types.mid);
          List.iter visit
            [ nd.Dd.Types.m00; nd.Dd.Types.m01; nd.Dd.Types.m10; nd.Dd.Types.m11 ]
        | _ -> ()
      in
      visit (Dd.Pkg.mroot_edge r);
      Alcotest.(check bool) "some nodes were rebuilt" true (!rebuilt > n))

(* distinct non-canonical weight ids reachable from a rooted vector *)
let reachable_weight_count (e : Dd.Types.vedge) =
  let ids = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  let keep (w : Cxnum.Cx_table.value) =
    if w.Cxnum.Cx_table.id > 1 then Hashtbl.replace ids w.Cxnum.Cx_table.id ()
  in
  let rec go (e : Dd.Types.vedge) =
    if not (Dd.Types.vedge_is_zero e) then begin
      keep e.Dd.Types.vw;
      match e.Dd.Types.vt with
      | None -> ()
      | Some n ->
        if not (Hashtbl.mem seen n.Dd.Types.vid) then begin
          Hashtbl.replace seen n.Dd.Types.vid ();
          go n.Dd.Types.v0;
          go n.Dd.Types.v1
        end
    end
  in
  go e;
  Hashtbl.length ids

let test_compact_rebuilds_weight_table () =
  let p = Dd.Pkg.create () in
  let n = 5 in
  let s = Qsim.Dd_sim.simulate p (Algorithms.Random_circuit.unitary ~seed:3 ~qubits:n ~gates:40) in
  ignore (Qsim.Dd_sim.simulate p (Algorithms.Random_circuit.unitary ~seed:4 ~qubits:n ~gates:40));
  let weights_before = (Dd.Pkg.stats p).Dd.Pkg.weights in
  let r = Dd.Pkg.root_v p s in
  Dd.Pkg.compact p;
  let weights_after = (Dd.Pkg.stats p).Dd.Pkg.weights in
  Alcotest.(check bool)
    (Fmt.str "weight table shrank (%d -> %d)" weights_before weights_after)
    true
    (weights_after < weights_before);
  (* the rebuilt table holds exactly the root-reachable weights plus the
     canonical 0 and 1 *)
  let reachable = reachable_weight_count (Dd.Pkg.vroot_edge r) in
  Alcotest.(check bool)
    (Fmt.str "weights (%d) <= reachable (%d) + canonical 2" weights_after reachable)
    true
    (weights_after <= reachable + 2);
  (* a second sweep is a fixpoint *)
  Dd.Pkg.compact p;
  Alcotest.(check int) "compaction is idempotent on weights" weights_after
    ((Dd.Pkg.stats p).Dd.Pkg.weights);
  Dd.Pkg.release_v p r

let cx_identical (a : Cx.t) (b : Cx.t) = a.Cx.re = b.Cx.re && a.Cx.im = b.Cx.im

let prop_compact_preserves_root_amplitudes =
  QCheck.Test.make ~name:"compact preserves rooted amplitudes bit-for-bit" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 10000))
    (fun (qubits, seed) ->
      let p = Dd.Pkg.create () in
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:20 in
      let s = Qsim.Dd_sim.simulate p c in
      let u = Qsim.Dd_sim.build_unitary p c in
      (* garbage for the sweep to collect *)
      ignore
        (Qsim.Dd_sim.simulate p
           (Algorithms.Random_circuit.unitary ~seed:(seed + 1) ~qubits ~gates:20));
      let v_before = Dd.Vec.to_array p s ~n:qubits in
      let m_before = Dd.Mat.to_array p u ~n:qubits in
      let rv = Dd.Pkg.root_v p s and rm = Dd.Pkg.root_m p u in
      Dd.Pkg.compact p;
      let v_after = Dd.Vec.to_array p (Dd.Pkg.vroot_edge rv) ~n:qubits in
      let m_after = Dd.Mat.to_array p (Dd.Pkg.mroot_edge rm) ~n:qubits in
      Dd.Pkg.release_v p rv;
      Dd.Pkg.release_m p rm;
      Array.for_all2 cx_identical v_before v_after
      && Array.for_all2 (fun r1 r2 -> Array.for_all2 cx_identical r1 r2) m_before
           m_after)

let prop_compacting_checkpoints =
  QCheck.Test.make ~name:"same amplitudes when every checkpoint compacts" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 10000))
    (fun (qubits, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits ~gates:20 in
      let run () =
        let p = Dd.Pkg.create () in
        Dd.Vec.to_array p (Qsim.Dd_sim.simulate p c) ~n:qubits
      in
      (* a compaction rebuilds the complex table, so a later value may
         snap to another representative within the interning tolerance *)
      Array.for_all2 (fun a b -> Util.cx_close ~tol:1e-8 a b) (run ())
        (Util.compacting run))

let suite =
  [ Alcotest.test_case "basis states" `Quick test_basis_states
  ; Alcotest.test_case "cache replace" `Quick test_cache_replace
  ; Alcotest.test_case "cache keys do not alias; clear after growth" `Quick
      test_cache_keys_and_clear
  ; Alcotest.test_case "swept survivors stay canonical" `Quick
      test_sweep_survivors_stay_canonical
  ; Alcotest.test_case "compact rebuilds the weight table" `Quick
      test_compact_rebuilds_weight_table
  ; Alcotest.test_case "repeated apply hits the mv cache" `Quick
      test_repeated_apply_hits_cache
  ; Alcotest.test_case "product state" `Quick test_product_state
  ; Alcotest.test_case "vector round trip" `Quick test_vec_roundtrip
  ; Alcotest.test_case "matrix round trip" `Quick test_mat_roundtrip
  ; Alcotest.test_case "gate construction vs dense" `Quick
      test_gate_construction_matches_dense
  ; Alcotest.test_case "controlled gates vs dense" `Quick
      test_controlled_gates_match_dense
  ; Alcotest.test_case "identity properties" `Quick test_identity_properties
  ; Alcotest.test_case "canonicity: node sharing" `Quick test_canonicity_sharing
  ; Alcotest.test_case "probabilities and projection" `Quick
      test_probabilities_and_project
  ; Alcotest.test_case "impossible projection rejected" `Quick
      test_project_zero_probability_rejected
  ; Alcotest.test_case "inner products" `Quick test_inner_product
  ; Alcotest.test_case "deep chains keep tiny weights" `Quick test_deep_chain_weights
  ; Alcotest.test_case "node counts" `Quick test_node_counts
  ; Alcotest.test_case "process fidelity" `Quick test_process_fidelity
  ; Alcotest.test_case "dot export" `Quick test_dot_export
  ; Util.qtest prop_node_counts_match_reference
  ; Util.qtest prop_simulation_matches_dense
  ; Util.qtest prop_unitary_matches_dense
  ; Util.qtest prop_probabilities_sum_to_one
  ; Util.qtest prop_add_commutes
  ; Util.qtest prop_adjoint_involution
  ; Util.qtest prop_unitary_times_adjoint_is_identity
  ; Util.qtest prop_mul_associative_on_states
  ; Util.qtest prop_adjoint_reverses_products
  ; Util.qtest prop_inner_product_unitary_invariant
  ; Util.qtest prop_compact_preserves_root_amplitudes
  ; Util.qtest prop_compacting_checkpoints
  ; Alcotest.test_case "(A B)^d = B^d A^d on seeds (776, 30), non-canonical" `Quick
      test_adjoint_products_non_canonical
  ]
