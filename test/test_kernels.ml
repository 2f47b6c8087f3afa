(* Direct gate-application kernels: every kernel must produce the same
   physical edge (same hash-consed node, same interned weight) as the
   generic [Pkg.gate] + [Mat.apply]/[Mat.mul] path — canonical
   normalization makes the results bit-identical, not merely close. *)

module Gates = Circuit.Gates
module T = Dd.Types

let gate_pool =
  [| Gates.X; Gates.Y; Gates.Z; Gates.H; Gates.S; Gates.Sdg; Gates.T
   ; Gates.SX; Gates.RX 0.7; Gates.RY (-1.2); Gates.RZ 2.5; Gates.P 0.9
   ; Gates.U3 (1.1, 0.4, -2.2)
  |]

(* a random (target, controls, 2x2) on [n] wires; controls are distinct
   wires both above and below the target with random polarity *)
let random_gate_case st n =
  let target = Random.State.int st n in
  let n_controls = Random.State.int st (min 3 n) in
  let rec pick acc k =
    if k = 0 then acc
    else begin
      let q = Random.State.int st n in
      if q = target || List.mem_assoc q acc then pick acc k
      else pick ((q, Random.State.bool st) :: acc) (k - 1)
    end
  in
  let controls = pick [] n_controls in
  let g = gate_pool.(Random.State.int st (Array.length gate_pool)) in
  (target, controls, Gates.matrix g)

(* physical equality of interned weight and hash-consed node; the [option]
   boxes themselves may be distinct allocations, so unwrap before [==] *)
let bit_identical_v (a : T.vedge) (b : T.vedge) =
  a.T.vw == b.T.vw
  &&
  match (a.T.vt, b.T.vt) with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

let bit_identical_m (a : T.medge) (b : T.medge) =
  a.T.mw == b.T.mw
  &&
  match (a.T.mt, b.T.mt) with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

let random_state p ~n ~seed =
  Qsim.Dd_sim.simulate p (Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:12)

let random_unitary p ~n ~seed =
  Qsim.Dd_sim.build_unitary p
    (Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:10)

let prop_apply_gate_matches_generic =
  QCheck.Test.make ~name:"apply_gate = Pkg.gate + Mat.apply (bit-identical)"
    ~count:150
    QCheck.(pair (int_range 1 6) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; 0x6a7e |] in
      let target, controls, u = random_gate_case st n in
      let p = Dd.Pkg.create () in
      let v = random_state p ~n ~seed in
      let generic = Dd.Mat.apply p (Dd.Pkg.gate p ~n ~controls ~target u) v in
      let kernel = Dd.Mat.apply_gate p ~n ~controls ~target u v in
      bit_identical_v generic kernel)

let prop_mul_gate_left_matches_generic =
  QCheck.Test.make ~name:"mul_gate_left = Pkg.gate + Mat.mul (bit-identical)"
    ~count:100
    QCheck.(pair (int_range 1 5) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; 0x1ef7 |] in
      let target, controls, u = random_gate_case st n in
      let p = Dd.Pkg.create () in
      let m = random_unitary p ~n ~seed in
      let g = Dd.Pkg.gate p ~n ~controls ~target u in
      bit_identical_m (Dd.Mat.mul p g m)
        (Dd.Mat.mul_gate_left p ~n ~controls ~target u m))

let prop_mul_gate_right_matches_generic =
  QCheck.Test.make
    ~name:"mul_gate_right = Mat.mul with Mat.adjoint (bit-identical)" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; 0x217 |] in
      let target, controls, u = random_gate_case st n in
      let p = Dd.Pkg.create () in
      let m = random_unitary p ~n ~seed in
      let g = Dd.Pkg.gate p ~n ~controls ~target u in
      bit_identical_m
        (Dd.Mat.mul p m (Dd.Mat.adjoint p g))
        (Dd.Mat.mul_gate_right p ~n ~controls ~target u m))

(* the old Dd_sim swap path: three CX matrix DDs and two multiplications —
   kept here as the regression oracle the native kernel is pinned against *)
let swap_via_cx p ~n a b =
  let x = Gates.matrix Gates.X in
  let cxg c t = Dd.Pkg.gate p ~n ~controls:[ (c, true) ] ~target:t x in
  let ab = cxg a b
  and ba = cxg b a in
  Dd.Mat.mul p ab (Dd.Mat.mul p ba ab)

let prop_swap_kernels_match_cx_decomposition =
  QCheck.Test.make ~name:"swap kernels = 3xCX decomposition (bit-identical)"
    ~count:80
    QCheck.(pair (int_range 2 6) (int_range 0 100000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; 0x5a9 |] in
      let a = Random.State.int st n in
      let b = (a + 1 + Random.State.int st (n - 1)) mod n in
      let p = Dd.Pkg.create () in
      let old = swap_via_cx p ~n a b in
      (* [simulate] and [build_unitary] checkpoint, so the edges built
         before them are rooted across the calls *)
      Dd.Pkg.with_root_m p old @@ fun _ ->
      let v = random_state p ~n ~seed in
      Dd.Pkg.with_root_v p v @@ fun _ ->
      let m = random_unitary p ~n ~seed:(seed + 1) in
      bit_identical_v (Dd.Mat.apply p old v) (Dd.Mat.apply_swap p ~n a b v)
      && bit_identical_m (Dd.Mat.mul p old m) (Dd.Mat.mul_swap_left p ~n a b m)
      && bit_identical_m (Dd.Mat.mul p m old) (Dd.Mat.mul_swap_right p ~n a b m))

let test_boundary_wires () =
  (* directed cases the generators only hit occasionally: target on the
     top/bottom wire, controls entirely below / entirely above it *)
  let n = 5 in
  let cases =
    [ (0, [])
    ; (n - 1, [])
    ; (n - 1, [ (0, true); (1, false) ]) (* all controls below the target *)
    ; (0, [ (n - 1, true); (2, false) ]) (* all controls above the target *)
    ; (2, [ (0, false); (4, true) ]) (* mixed *)
    ]
  in
  List.iteri
    (fun i (target, controls) ->
      let p = Dd.Pkg.create () in
      let u = Gates.matrix (Gates.U3 (0.9, -0.3, 1.7)) in
      let v = random_state p ~n ~seed:(1000 + i) in
      let m = Dd.Pkg.with_root_v p v (fun _ -> random_unitary p ~n ~seed:(2000 + i)) in
      let g = Dd.Pkg.gate p ~n ~controls ~target u in
      Alcotest.(check bool)
        (Fmt.str "vector case %d" i)
        true
        (bit_identical_v (Dd.Mat.apply p g v)
           (Dd.Mat.apply_gate p ~n ~controls ~target u v));
      Alcotest.(check bool)
        (Fmt.str "left case %d" i)
        true
        (bit_identical_m (Dd.Mat.mul p g m)
           (Dd.Mat.mul_gate_left p ~n ~controls ~target u m));
      Alcotest.(check bool)
        (Fmt.str "right case %d" i)
        true
        (bit_identical_m
           (Dd.Mat.mul p m (Dd.Mat.adjoint p g))
           (Dd.Mat.mul_gate_right p ~n ~controls ~target u m)))
    cases

let test_kernel_cache_hits () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let p = Dd.Pkg.create () in
      let n = 4 in
      let h = Gates.matrix Gates.H in
      let s = Dd.Pkg.zero_state p n in
      let before = Obs.Metrics.snapshot () in
      let first = Dd.Mat.apply_gate p ~n ~controls:[] ~target:2 h s in
      let second = Dd.Mat.apply_gate p ~n ~controls:[] ~target:2 h s in
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "cached kernel result is pointer-identical" true
        (bit_identical_v first second);
      Alcotest.(check int) "two kernel calls recorded" 2
        (Obs.Metrics.find d "dd.kernel.calls");
      Alcotest.(check bool) "repeat application reports kernel hits" true
        (Obs.Metrics.find d "dd.kernel.hits" > 0))

let suite =
  [ Alcotest.test_case "boundary wires and control layouts" `Quick
      test_boundary_wires
  ; Alcotest.test_case "kernel cache hits" `Quick test_kernel_cache_hits
  ; Util.qtest prop_apply_gate_matches_generic
  ; Util.qtest prop_mul_gate_left_matches_generic
  ; Util.qtest prop_mul_gate_right_matches_generic
  ; Util.qtest prop_swap_kernels_match_cx_decomposition
  ]
