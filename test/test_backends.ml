(* Differential testing across DD backends: [Dd.Classic] (hash-consed
   nodes) and [Dd.Packed] (int-indexed arrays) are independent
   implementations of the same canonical normal form, so every flow must
   agree between them — verdict for verdict, bitstring for bitstring,
   node count for node count.  Plus the runtime registry the CLI and
   engine dispatch through, and the cross-backend verdict cache. *)

module Circ = Circuit.Circ
module Op = Circuit.Op
module Pair = Algorithms.Pair
module Vc = Qcec.Verify.Make (Dd.Classic)
module Vp = Qcec.Verify.Make (Dd.Packed)
module Sim_c = Qsim.Dd_sim.Make (Dd.Classic)
module Sim_p = Qsim.Dd_sim.Make (Dd.Packed)

(* -- registry ---------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string))
    "both built-in backends registered, sorted" [ "classic"; "packed" ]
    (Dd.Registry.names ());
  Alcotest.(check string) "classic is the default" "classic" Dd.Registry.default;
  Alcotest.(check bool) "find classic" true (Dd.Registry.find "classic" <> None);
  Alcotest.(check bool) "find packed" true (Dd.Registry.find "packed" <> None);
  Alcotest.(check bool) "unknown name resolves to None" true
    (Dd.Registry.find "bogus" = None)

(* The CLI and engine reject unknown backends before any work: the CLI
   exits 2 (exercised by the CI backend-matrix leg), the manifest
   compiler — tested here — fails the whole batch up front. *)
let test_manifest_rejects_unknown_backend () =
  let manifest name =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "qcec-manifest/v1")
      ; ("defaults", Obs.Json.Obj [ ("backend", Obs.Json.String name) ])
      ; ( "jobs"
        , Obs.Json.List
            [ Obs.Json.Obj
                [ ("a", Obs.Json.String "a.qasm"); ("b", Obs.Json.String "b.qasm") ]
            ] )
      ]
  in
  (match Engine.Manifest.of_json (manifest "bogus") with
   | Ok _ -> Alcotest.fail "unknown backend compiled"
   | Error msg ->
     Alcotest.(check bool)
       (Fmt.str "error names the backend: %s" msg)
       true
       (Util.contains ~sub:"unknown backend" msg));
  match Engine.Manifest.of_json (manifest "packed") with
  | Ok m ->
    List.iter
      (fun (s : Engine.Job.spec) ->
        Alcotest.(check string) "defaults propagate" "packed" s.Engine.Job.backend)
      m.Engine.Manifest.jobs
  | Error msg -> Alcotest.failf "valid backend rejected: %s" msg

(* -- cross-backend verdict cache --------------------------------------- *)

(* The cache key deliberately excludes the backend: verdicts are
   bit-identical across backends, so a verdict computed under one must be
   served warm under the other. *)
let test_cache_cross_backend () =
  let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:3 6) in
  let a = pair.Pair.static_circuit and b = pair.Pair.dynamic_circuit in
  let perm = pair.Pair.dyn_to_static in
  let check_direction name cold warm =
    let store = Cache_store.Store.in_memory () in
    let (rc : Qcec.Verify.functional_result) = cold ~perm ~cache:store a b in
    Alcotest.(check bool) (name ^ ": cold leg computed") false rc.Qcec.Verify.cached;
    let (rw : Qcec.Verify.functional_result) = warm ~perm ~cache:store a b in
    Alcotest.(check bool) (name ^ ": warm leg served from store") true
      rw.Qcec.Verify.cached;
    Alcotest.(check bool)
      (name ^ ": verdicts agree")
      true
      (rc.Qcec.Verify.equivalent = rw.Qcec.Verify.equivalent
      && rc.Qcec.Verify.exactly_equal = rw.Qcec.Verify.exactly_equal)
  in
  check_direction "classic -> packed"
    (fun ~perm ~cache a b -> Vc.functional ~perm ~cache a b)
    (fun ~perm ~cache a b -> Vp.functional ~perm ~cache a b);
  check_direction "packed -> classic"
    (fun ~perm ~cache a b -> Vp.functional ~perm ~cache a b)
    (fun ~perm ~cache a b -> Vc.functional ~perm ~cache a b)

(* -- differential properties ------------------------------------------- *)

let functional_fingerprint (r : Qcec.Verify.functional_result) =
  ( r.Qcec.Verify.equivalent
  , r.Qcec.Verify.exactly_equal
  , r.Qcec.Verify.transformed_qubits
  , r.Qcec.Verify.peak_nodes )

(* half the cases get a deliberate discrepancy so the [false] verdict is
   exercised differentially too, not just the happy path *)
let perturb c =
  { c with
    Circ.name = c.Circ.name ^ "+x"
  ; Circ.ops = c.Circ.ops @ [ Op.apply Circuit.Gates.X 0 ]
  }

let prop_unitary_functional =
  QCheck.Test.make ~name:"functional verdicts agree on random unitary pairs"
    ~count:60
    QCheck.(pair (int_range 1 5) (int_range 0 100000))
    (fun (n, seed) ->
      let a = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:12 in
      let b = if seed mod 2 = 0 then a else perturb a in
      functional_fingerprint (Vc.functional a b)
      = functional_fingerprint (Vp.functional a b))

let prop_measure_terminal_functional =
  QCheck.Test.make
    ~name:"functional verdicts agree on measure-terminal pairs" ~count:40
    QCheck.(pair (int_range 1 4) (int_range 0 100000))
    (fun (n, seed) ->
      let u = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:10 in
      let measured c =
        Circ.make ~name:(c.Circ.name ^ "+measure") ~qubits:n ~cbits:n
          (c.Circ.ops @ List.init n (fun q -> Op.Measure { qubit = q; cbit = q }))
      in
      let a = measured u in
      let b = if seed mod 2 = 0 then a else measured (perturb u) in
      functional_fingerprint (Vc.functional a b)
      = functional_fingerprint (Vp.functional a b))

let prop_dynamic_transformed_functional =
  QCheck.Test.make
    ~name:"functional verdicts agree on dynamic-vs-transformed pairs" ~count:40
    QCheck.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:n ~cbits:2 ~ops:12 in
      let static = Transform.Dynamic.transform dyn in
      functional_fingerprint (Vc.functional static dyn)
      = functional_fingerprint (Vp.functional static dyn))

(* the Section 5 flow: the extracted distribution (the would-be
   counterexample bitstrings and their probabilities) must be identical
   across backends, for agreeing and disagreeing pairs alike *)
let prop_distribution_bitstrings =
  QCheck.Test.make
    ~name:"distribution verdicts and bitstrings agree across backends"
    ~count:30
    QCheck.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:n ~cbits:2 ~ops:10 in
      let static = Transform.Dynamic.transform dyn in
      let static =
        if seed mod 2 = 0 then static
        else
          (* X up front skews the outcome statistics: the non-equal
             verdict must also agree backend-to-backend *)
          { static with
            Circ.name = static.Circ.name ^ "+x"
          ; Circ.ops = Op.apply Circuit.Gates.X 0 :: static.Circ.ops
          }
      in
      let rc = Vc.distribution dyn static and rp = Vp.distribution dyn static in
      let sorted d = List.sort compare d in
      let close a b =
        List.length a = List.length b
        && List.for_all2
             (fun (ka, pa) (kb, pb) -> ka = kb && Float.abs (pa -. pb) < 1e-12)
             (sorted a) (sorted b)
      in
      rc.Qcec.Verify.distributions_equal = rp.Qcec.Verify.distributions_equal
      && Float.abs (rc.Qcec.Verify.total_variation -. rp.Qcec.Verify.total_variation)
         < 1e-12
      && close rc.Qcec.Verify.dynamic_distribution rp.Qcec.Verify.dynamic_distribution
      && close rc.Qcec.Verify.static_distribution rp.Qcec.Verify.static_distribution)

(* simulation end state: same final node count, same amplitudes — the
   packed layout must not change what gets merged, only where it lives *)
let prop_simulation_node_counts =
  QCheck.Test.make ~name:"simulated states match node-for-node" ~count:60
    QCheck.(pair (int_range 1 6) (int_range 0 100000))
    (fun (n, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:15 in
      let pc = Dd.Classic.Pkg.create () and pp = Dd.Packed.Pkg.create () in
      let vc = Sim_c.simulate pc c and vp = Sim_p.simulate pp c in
      Dd.Classic.Vec.node_count pc vc = Dd.Packed.Vec.node_count pp vp
      && Array.for_all2
           (fun a b -> Util.cx_close ~tol:1e-12 a b)
           (Dd.Classic.Vec.to_array pc vc ~n)
           (Dd.Packed.Vec.to_array pp vp ~n))

let suite =
  [ Alcotest.test_case "registry names/find/default" `Quick test_registry
  ; Alcotest.test_case "manifest rejects unknown backends" `Quick
      test_manifest_rejects_unknown_backend
  ; Alcotest.test_case "verdict cache crosses backends" `Quick
      test_cache_cross_backend
  ; Util.qtest prop_unitary_functional
  ; Util.qtest prop_measure_terminal_functional
  ; Util.qtest prop_dynamic_transformed_functional
  ; Util.qtest prop_distribution_bitstrings
  ; Util.qtest prop_simulation_node_counts
  ]
