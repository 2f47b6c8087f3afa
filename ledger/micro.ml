(* Bechamel microbenchmarks of single layers at fixed sizes, independent of
   the workload seed (README.md lists the sizes).  They run in the traced
   part of a ledger run only, after every timed repetition. *)

module Circ = Circuit.Circ

(* Kernel and intern inputs are built once; each staged function then does
   exactly one operation of the layer it names. *)
let tests ~smoke =
  let open Bechamel in
  let cx_intern =
    let table = Cxnum.Cx_table.create () in
    let entries = if smoke then 1_000 else 100_000 in
    let st = Random.State.make [| 17 |] in
    let values =
      Array.init entries (fun _ ->
        Cxnum.Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0))
    in
    Array.iter (fun z -> ignore (Cxnum.Cx_table.lookup table z)) values;
    let i = ref 0 in
    fun () ->
      i := (!i + 7919) mod entries;
      ignore (Cxnum.Cx_table.lookup table values.(!i))
  in
  let unique_lookup =
    let p = Dd.Pkg.create () in
    match (Dd.Pkg.ident p 8).Dd.Types.mt with
    | Some n ->
      fun () ->
        ignore
          (Dd.Pkg.make_mnode p n.Dd.Types.mvar n.Dd.Types.m00 n.Dd.Types.m01
             n.Dd.Types.m10 n.Dd.Types.m11)
    | None -> assert false (* an 8-qubit identity has a root node *)
  in
  let kernel_apply =
    (* CX(1 -> 0) descends through all 2^n - 1 nodes of the QFT unitary and
       keeps its size; a CX spanning the register instead blows the product
       up by orders of magnitude *)
    let n = if smoke then 6 else 10 in
    let p = Dd.Pkg.create () in
    let qft = Qsim.Dd_sim.build_unitary p (Circ.strip_measurements (Algorithms.Qft.static n)) in
    let x = Circuit.Gates.matrix Circuit.Gates.X in
    fun () ->
      (* without the clear, every call after the first is one cache hit *)
      Dd.Pkg.clear_caches p;
      ignore (Dd.Mat.mul_gate_left p ~n ~controls:[ (1, true) ] ~target:0 x qft)
  in
  let transform =
    let iqpe = Algorithms.Qpe.dynamic ~theta:(1365.0 /. 2048.0) ~bits:(if smoke then 4 else 11) in
    fun () -> ignore (Transform.Dynamic.transform iqpe)
  in
  let parse =
    let src = Circuit.Qasm_printer.to_string (Algorithms.Qft.dynamic (if smoke then 4 else 12)) in
    fun () -> ignore (Circuit.Qasm_parser.parse src)
  in
  [ ("micro.cx_intern_ns", cx_intern)
  ; ("micro.unique_lookup_ns", unique_lookup)
  ; ("micro.kernel_apply_ns", kernel_apply)
  ; ("micro.transform_ns", transform)
  ; ("micro.parse_ns", parse)
  ]
  |> List.map (fun (name, f) -> (name, Test.make ~name (Staged.stage f)))

(* [run ~smoke] is one OLS estimate, in nanoseconds per call, per test. *)
let run ~smoke =
  let open Bechamel in
  let quota = Time.second (if smoke then 0.02 else 0.25) in
  let cfg = Benchmark.cfg ~limit:(if smoke then 10 else 200) ~quota ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.map
    (fun (name, test) ->
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let ns =
        match Hashtbl.find_opt results name with
        | Some r -> (
          match Analyze.OLS.estimates r with Some [ ns ] -> ns | Some _ | None -> Float.nan)
        | None -> Float.nan
      in
      (name, ns))
    (tests ~smoke)
