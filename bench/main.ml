(* Benchmark harness reproducing the paper's experimental evaluation:

     table1    the paper's Table 1 (all three benchmark families, all four
               timing columns), at sizes scaled to this OCaml implementation
     fig4      the extraction branching tree of the running example
     ablation  design-choice studies: QPE generator alignment, extraction
               pruning thresholds, parallel extraction, checking strategies

   Run everything:       dune exec bench/main.exe
   One section:          dune exec bench/main.exe -- table1
   Paper-scale sizes:    dune exec bench/main.exe -- table1 --full
   CI smoke sizes:       dune exec bench/main.exe -- table1 --quick
   Machine-readable:     dune exec bench/main.exe -- table1 --json bench.json

   The benchmark of record (end-to-end and per-layer metrics, compared
   across commits) is the ledger: see ledger/README.md. *)

module Circ = Circuit.Circ
module Pair = Algorithms.Pair

let pr fmt = Fmt.pr fmt

(* Equivalence failures no longer abort the run: they are recorded (so a
   --json report still covers every row) and turn the exit code non-zero,
   which is what test/cli/bench.t gates on. *)
let failures = ref 0

let report_failure fmt =
  incr failures;
  Fmt.epr fmt

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

type row =
  { n_static : int
  ; g_static : int
  ; n_dyn : int
  ; g_dyn : int
  ; t_trans : float option
  ; t_ver : float option
  ; t_extract : float option
  ; t_sim : float option
  ; equivalent : bool option  (* functional check verdict, if run *)
  ; distributions_equal : bool option  (* distribution check verdict, if run *)
  ; metrics : Obs.Metrics.snapshot  (* this row's own reading (--json only) *)
  }

let pp_time ppf = function
  | None -> Fmt.pf ppf "%10s" "-"
  | Some t -> Fmt.pf ppf "%10.4f" t

let print_row r =
  pr "%5d %6d %5d %6d %a %a %a %a@." r.n_static r.g_static r.n_dyn r.g_dyn pp_time
    r.t_trans pp_time r.t_ver pp_time r.t_extract pp_time r.t_sim

let print_header () =
  pr "%5s %6s %5s %6s %10s %10s %10s %10s@." "n" "|G|" "n_dyn" "|G|dyn" "t_trans"
    "t_ver" "t_extract" "t_sim";
  pr "%s@." (String.make 68 '-')

(* One Table 1 row: functional verification via the Section 4 scheme and,
   when requested, the Section 5 extraction against plain simulation. *)
let bench_row ?(extract = true) ?(verify = true) (pair : Pair.t) =
  let static = pair.Pair.static_circuit and dyn = pair.Pair.dynamic_circuit in
  (* static-analyzer overhead, reported as the analysis.lint span in the
     --json output; generated pairs must be lint-clean of errors *)
  let diags =
    Obs.Span.with_ "analysis.lint" (fun () ->
      Analysis.lint static @ Analysis.lint dyn)
  in
  if Analysis.Diagnostic.has_errors diags then
    report_failure "%s: lint errors on a generated pair!@." static.Circ.name;
  let t_trans, t_ver, equivalent =
    if verify then begin
      let r =
        Qcec.Verify.functional ~perm:pair.Pair.dyn_to_static static dyn
      in
      if not r.Qcec.Verify.equivalent then
        report_failure "%s: NOT equivalent!@." static.Circ.name;
      ( Some r.Qcec.Verify.t_transform
      , Some r.Qcec.Verify.t_check
      , Some r.Qcec.Verify.equivalent )
    end
    else begin
      (* still time the transformation itself *)
      let t0 = Qcec.Verify.now () in
      ignore (Transform.Dynamic.transform dyn);
      (Some (Qcec.Verify.now () -. t0), None, None)
    end
  in
  let t_extract, t_sim, distributions_equal =
    if extract then begin
      (* one domain: the paper's sequential t_extract and t_sim *)
      let r = Qcec.Verify.distribution ~domains:1 dyn static in
      if not r.Qcec.Verify.distributions_equal then
        report_failure "%s: distributions differ!@." static.Circ.name;
      ( Some r.Qcec.Verify.t_extract
      , Some r.Qcec.Verify.t_simulate
      , Some r.Qcec.Verify.distributions_equal )
    end
    else begin
      let p = Dd.Pkg.create () in
      let t0 = Qcec.Verify.now () in
      ignore (Qsim.Dd_sim.simulate p static);
      (None, Some (Qcec.Verify.now () -. t0), None)
    end
  in
  { n_static = static.Circ.num_qubits
  ; g_static = Circ.gate_count static
  ; n_dyn = dyn.Circ.num_qubits
  ; g_dyn = Circ.total_ops dyn
  ; t_trans
  ; t_ver
  ; t_extract
  ; t_sim
  ; equivalent
  ; distributions_equal
  ; metrics = []
  }

(* A row is read in its own scope, so its peaks are its own. *)
let bench_pair ?extract ?verify pair =
  let row, reading = Obs.Scope.run (fun () -> bench_row ?extract ?verify pair) in
  { row with metrics = reading.Obs.Scope.metrics }

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* ------------------------------------------------------------------ *)
(* JSON sink (schema qcec-bench/v1, documented in docs/OBSERVABILITY.md):
   Table 1 rows plus the DD counters attributable to each row, written as
   one document at exit.  Enabling it also enables metrics collection.    *)

let json_path : string option ref = ref None
let json_rows : (string * row) list ref = ref []

let collect family row =
  if !json_path <> None then json_rows := (family, row) :: !json_rows

let row_json (r : row) =
  let time = function None -> Obs.Json.Null | Some t -> Obs.Json.Float t in
  let verdict = function None -> Obs.Json.Null | Some b -> Obs.Json.Bool b in
  Obs.Json.Obj
    [ ("n", Obs.Json.Int r.n_static)
    ; ("g_static", Obs.Json.Int r.g_static)
    ; ("n_dyn", Obs.Json.Int r.n_dyn)
    ; ("g_dyn", Obs.Json.Int r.g_dyn)
    ; ("t_trans", time r.t_trans)
    ; ("t_ver", time r.t_ver)
    ; ("t_extract", time r.t_extract)
    ; ("t_sim", time r.t_sim)
    ; ("equivalent", verdict r.equivalent)
    ; ("distributions_equal", verdict r.distributions_equal)
    ; ("metrics", Obs.Metrics.to_json r.metrics)
    ]

let write_json ~mode path =
  (* group collected rows by family, preserving encounter order *)
  let families = ref [] in
  List.iter
    (fun (family, row) ->
      match List.assoc_opt family !families with
      | Some rows -> rows := row :: !rows
      | None -> families := !families @ [ (family, ref [ row ]) ])
    (List.rev !json_rows);
  let table1 =
    List.map
      (fun (family, rows) ->
        Obs.Json.Obj
          [ ("family", Obs.Json.String family)
          ; ("rows", Obs.Json.List (List.rev_map row_json !rows))
          ])
      !families
  in
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "qcec-bench/v1")
      ; ("mode", Obs.Json.String mode)
      ; ("table1", Obs.Json.List table1)
      ; ("failures", Obs.Json.Int !failures)
      ; ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()))
      ; ("spans", Obs.Span.to_json ())
      ]
  in
  Obs.Json.to_file path doc

(* Optional CSV sink for downstream plotting: one file per Table 1 block. *)
let csv_dir : string option ref = ref None

let with_csv block f =
  match !csv_dir with
  | None -> f (fun _ -> ())
  | Some dir ->
    let path = Filename.concat dir (Fmt.str "table1_%s.csv" block) in
    let oc = open_out path in
    output_string oc "n,g_static,n_dyn,g_dyn,t_trans,t_ver,t_extract,t_sim\n";
    let cell = function None -> "" | Some t -> Fmt.str "%.6f" t in
    let write r =
      Printf.fprintf oc "%d,%d,%d,%d,%s,%s,%s,%s\n" r.n_static r.g_static r.n_dyn
        r.g_dyn (cell r.t_trans) (cell r.t_ver) (cell r.t_extract) (cell r.t_sim)
    in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f write)

let table1 ~full ~quick () =
  pr "@.== Table 1: handling non-unitaries in equivalence checking ==@.";
  pr "(columns as in the paper; sizes scaled to this implementation,@.";
  pr " --full uses paper-scale ranges where feasible, --quick CI-smoke sizes)@.@.";

  pr "Bernstein-Vazirani@.";
  print_header ();
  let bv_range = if quick then range 8 10 else range 121 128 in
  with_csv "bv" (fun write ->
    List.iter
      (fun n ->
        (* the paper's n counts data + ancilla qubits *)
        let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:n (n - 1)) in
        let row = bench_pair pair in
        write row;
        collect "bv" row;
        print_row row)
      bv_range);

  pr "@.Quantum Fourier Transform (extraction regime: dense output)@.";
  print_header ();
  let qft_small = if quick then range 6 8 else if full then range 17 20 else range 13 16 in
  with_csv "qft_extraction" (fun write ->
    List.iter
      (fun n ->
        let row = bench_pair (Algorithms.Qft.make n) in
        write row;
        collect "qft_extraction" row;
        print_row row)
      qft_small);

  pr "@.Quantum Fourier Transform (functional regime, extraction skipped)@.";
  print_header ();
  let qft_large = if quick then range 10 12 else range 125 128 in
  with_csv "qft_functional" (fun write ->
    List.iter
      (fun n ->
        let row = bench_pair ~extract:false (Algorithms.Qft.make n) in
        write row;
        collect "qft_functional" row;
        print_row row)
      qft_large);

  pr "@.Quantum Phase Estimation (textbook static generator; t_ver grows@.";
  pr "steeply with the precision, as in the paper)@.";
  print_header ();
  let qpe_bits = if quick then range 4 6 else if full then range 8 15 else range 8 13 in
  with_csv "qpe" (fun write ->
    List.iter
      (fun m ->
        let theta = Algorithms.Qpe.random_theta ~seed:m ~bits:m in
        let row = bench_pair (Algorithms.Qpe.make_textbook ~theta ~bits:m) in
        write row;
        collect "qpe" row;
        print_row row)
      qpe_bits);
  pr "@.note: the paper reports QPE at n = 43..50 on a 64 GiB C++ setup; the@.";
  pr "textbook construction doubles its verification cost roughly every bit@.";
  pr "(see the ablation: the aligned generator verifies n = 50 in seconds).@."

(* ------------------------------------------------------------------ *)
(* Fig. 4                                                             *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  pr "@.== Fig. 4: extraction for IQPE with theta = 3/16 (3 bits) ==@.@.";
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let tree = Qsim.Extraction.tree dyn in
  pr "%a@.@." Qsim.Extraction.pp_tree tree;
  let r = Qsim.Extraction.run dyn in
  pr "P(|001>) = %.4f (paper: 1/2 * 0.85 * 0.96 ~ 0.408)@."
    (List.assoc "100" r.Qsim.Extraction.distribution);
  pr "full distribution:@.%a@." Qcec.Distribution.pp
    (Qcec.Distribution.most_probable ~count:8 r.Qsim.Extraction.distribution)

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ablation_qpe_alignment ~full () =
  pr "@.== Ablation: QPE static-generator alignment ==@.";
  pr "(the aligned generator mirrors the deferred dynamic circuit gate by@.";
  pr " gate, keeping the alternating product at the identity; the textbook@.";
  pr " generator forces it to drift)@.@.";
  pr "%6s %14s %14s@." "bits" "aligned [s]" "textbook [s]";
  let bits = if full then [ 8; 10; 12; 14 ] else [ 8; 10; 12 ] in
  List.iter
    (fun m ->
      let theta = Algorithms.Qpe.random_theta ~seed:m ~bits:m in
      let run mk =
        let pair = mk ~theta ~bits:m in
        let r =
          Qcec.Verify.functional ~perm:pair.Pair.dyn_to_static
            pair.Pair.static_circuit pair.Pair.dynamic_circuit
        in
        assert r.Qcec.Verify.equivalent;
        r.Qcec.Verify.t_check
      in
      pr "%6d %14.4f %14.4f@." m (run Algorithms.Qpe.make)
        (run Algorithms.Qpe.make_textbook))
    bits;
  pr "@.aligned generator at paper-scale precision:@.";
  List.iter
    (fun m ->
      let theta = Algorithms.Qpe.random_theta ~seed:m ~bits:m in
      let pair = Algorithms.Qpe.make ~theta ~bits:m in
      let r =
        Qcec.Verify.functional ~perm:pair.Pair.dyn_to_static pair.Pair.static_circuit
          pair.Pair.dynamic_circuit
      in
      assert r.Qcec.Verify.equivalent;
      pr "  bits = %2d (n = %2d): t_ver = %.4f s@." m (m + 1) r.Qcec.Verify.t_check)
    [ 25; 42; 49 ]

let ablation_pruning () =
  pr "@.== Ablation: extraction pruning threshold ==@.";
  pr "(IQPE with a non-representable phase: leaf probabilities span many@.";
  pr " orders of magnitude, so the cutoff trades accuracy for work)@.@.";
  let m = 10 in
  let theta = Algorithms.Qpe.random_theta ~seed:7 ~bits:14 (* needs > m bits *) in
  let dyn = Algorithms.Qpe.dynamic ~theta ~bits:m in
  pr "%10s %8s %8s %10s %10s@." "cutoff" "leaves" "pruned" "mass" "time [s]";
  List.iter
    (fun cutoff ->
      let t0 = Qcec.Verify.now () in
      let r = Qsim.Extraction.run ~cutoff dyn in
      let dt = Qcec.Verify.now () -. t0 in
      pr "%10.0e %8d %8d %10.6f %10.4f@." cutoff
        r.Qsim.Extraction.stats.Qsim.Extraction.leaves
        r.Qsim.Extraction.stats.Qsim.Extraction.pruned
        (Qcec.Distribution.mass r.Qsim.Extraction.distribution)
        dt)
    [ 1e-12; 1e-6; 1e-3; 1e-2 ]

let ablation_parallel () =
  pr "@.== Ablation: parallel extraction (Section 5 notes the branches are@.";
  pr "embarrassingly parallel; the paper's own evaluation is sequential) ==@.@.";
  let default = Domain.recommended_domain_count () in
  List.iter
    (fun (name, dyn) ->
      pr "%s:@." name;
      List.iter
        (fun domains ->
          let t0 = Qcec.Verify.now () in
          let r = Qsim.Extraction.run ~domains dyn in
          let dt = Qcec.Verify.now () -. t0 in
          let st = r.Qsim.Extraction.stats in
          pr "  domains = %d: %.4f s (%d leaves, %d gate applications)@." domains dt
            st.Qsim.Extraction.leaves st.Qsim.Extraction.gate_applications)
        (if default > 1 then [ 1; default ] else [ 1 ]))
    [ ("QFT 13 (a genuine branch at every measurement)", Algorithms.Qft.dynamic 13)
    ; ( "BV 128 (no genuine branch: one domain walks)"
      , Algorithms.Bv.dynamic (Algorithms.Bv.hidden_string ~seed:128 127) )
    ]

let ablation_strategies () =
  pr "@.== Ablation: equivalence-checking strategies (QPE textbook, 8 bits) ==@.@.";
  let theta = Algorithms.Qpe.random_theta ~seed:3 ~bits:8 in
  let pair = Algorithms.Qpe.make_textbook ~theta ~bits:8 in
  List.iter
    (fun strategy ->
      let r =
        Qcec.Verify.functional ~strategy ~perm:pair.Pair.dyn_to_static
          pair.Pair.static_circuit pair.Pair.dynamic_circuit
      in
      pr "  %-16s equivalent = %b, t_ver = %.4f s, peak nodes = %d@."
        (Qcec.Strategy.name strategy) r.Qcec.Verify.equivalent r.Qcec.Verify.t_check
        r.Qcec.Verify.peak_nodes)
    [ Qcec.Strategy.Construction; Qcec.Strategy.Sequential; Qcec.Strategy.Proportional
    ; Qcec.Strategy.Lookahead; Qcec.Strategy.Simulation 16 ]

(* The paper's Section 5 argues the extraction scheme beats both obvious
   alternatives: stochastic sampling (too many runs for statistical
   significance) and density-matrix simulation (quadratically larger
   states).  Quantify all three on growing IQPE instances. *)
let ablation_alternatives () =
  pr "@.== Ablation: extraction vs. the Section 5 alternatives ==@.@.";
  pr "%6s %14s %14s %14s %12s@." "bits" "extract [s]" "density [s]" "sample [s]"
    "sample TVD";
  List.iter
    (fun m ->
      let theta = Algorithms.Qpe.random_theta ~seed:m ~bits:(m + 4) in
      let dyn = Algorithms.Qpe.dynamic ~theta ~bits:m in
      let t0 = Qcec.Verify.now () in
      let exact = Qsim.Extraction.run dyn in
      let t1 = Qcec.Verify.now () in
      let density = Qsim.Density.run dyn in
      let t2 = Qcec.Verify.now () in
      let shots = 4096 in
      let sampled = Qsim.Sampler.run ~seed:m ~shots dyn in
      let t3 = Qcec.Verify.now () in
      let tvd_density =
        Qcec.Distribution.total_variation exact.Qsim.Extraction.distribution
          (Qsim.Density.distribution density)
      in
      if tvd_density > 1e-8 then failwith "density simulation disagrees";
      let tvd_sample =
        Qcec.Distribution.total_variation exact.Qsim.Extraction.distribution
          (Qsim.Sampler.empirical sampled)
      in
      pr "%6d %14.4f %14.4f %14.4f %12.4f@." m (t1 -. t0) (t2 -. t1) (t3 -. t2)
        tvd_sample)
    [ 4; 5; 6; 7 ];
  pr "(sampling uses 4096 shots; its TVD column shows the statistical error@.";
  pr " that exact extraction avoids)@.";
  pr "@.growing the circuit width instead (random dynamic circuits, 4@.";
  pr "measurements): the density-matrix state is 2^n x 2^n, the extraction@.";
  pr "scheme stays vector-sized —@.@.";
  pr "%8s %14s %14s@." "qubits" "extract [s]" "density [s]";
  List.iter
    (fun qubits ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed:5 ~qubits ~cbits:4 ~ops:40 in
      let t0 = Qcec.Verify.now () in
      let exact = Qsim.Extraction.run dyn in
      let t1 = Qcec.Verify.now () in
      let density = Qsim.Density.run dyn in
      let t2 = Qcec.Verify.now () in
      let tvd =
        Qcec.Distribution.total_variation exact.Qsim.Extraction.distribution
          (Qsim.Density.distribution density)
      in
      if tvd > 1e-8 then failwith "density simulation disagrees";
      pr "%8d %14.4f %14.4f@." qubits (t1 -. t0) (t2 -. t1))
    [ 4; 6; 8; 10 ]

(* Clifford dynamic circuits admit a polynomial tableau backend; quantify
   its advantage over the DD extraction on wide dynamic BV instances. *)
let ablation_stabilizer () =
  pr "@.== Ablation: tableau backend on Clifford dynamic circuits ==@.@.";
  pr "%8s %16s %16s@." "n" "DD extract [s]" "tableau [s]";
  List.iter
    (fun n ->
      let dyn = Algorithms.Bv.dynamic (Algorithms.Bv.hidden_string ~seed:n n) in
      let t0 = Qcec.Verify.now () in
      let dd = Qsim.Extraction.run dyn in
      let t1 = Qcec.Verify.now () in
      let stab = Qsim.Stabilizer.extract_distribution dyn in
      let t2 = Qcec.Verify.now () in
      let tvd =
        Qcec.Distribution.total_variation dd.Qsim.Extraction.distribution stab
      in
      if tvd > 1e-9 then failwith "stabilizer extraction disagrees";
      pr "%8d %16.4f %16.4f@." n (t1 -. t0) (t2 -. t1))
    [ 32; 64; 128; 256 ]

(* Verifying optimized realizations — the paper's second use case. *)
let ablation_optimizer () =
  pr "@.== Ablation: verifying optimized realizations ==@.@.";
  pr "%-14s %8s %8s %10s %12s@." "circuit" "before" "after" "verified" "t_ver [s]";
  List.iter
    (fun (name, c) ->
      let decomposed = Qcompile.Decompose.to_basis c in
      let out = Qcompile.Optimize.run decomposed in
      let t0 = Qcec.Verify.now () in
      let r = Qcec.Verify.functional c out.Qcompile.Optimize.circuit in
      let dt = Qcec.Verify.now () -. t0 in
      pr "%-14s %8d %8d %10s %12.4f@." name
        (Circ.gate_count decomposed)
        (Circ.gate_count out.Qcompile.Optimize.circuit)
        (if r.Qcec.Verify.equivalent then "yes" else "NO!")
        dt)
    [ ("qft_8", Circ.strip_measurements (Algorithms.Qft.static 8))
    ; ( "qpe_8"
      , Circ.strip_measurements
          (Algorithms.Qpe.static ~theta:(Algorithms.Qpe.random_theta ~seed:2 ~bits:8)
             ~bits:8) )
    ; ("grover_5", Circ.strip_measurements (Algorithms.Grover.static ~marked:19 ~qubits:5 ()))
    ; ("ghz_10", Circ.strip_measurements (Algorithms.Ghz.static 10))
    ]

let ablation ~full () =
  ablation_qpe_alignment ~full ();
  ablation_pruning ();
  ablation_parallel ();
  ablation_strategies ();
  ablation_stabilizer ();
  ablation_alternatives ();
  ablation_optimizer ()

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let quick = List.mem "--quick" args in
  let rec extract_opts acc = function
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      extract_opts acc rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      extract_opts acc rest
    | x :: rest -> extract_opts (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_opts [] args in
  if !json_path <> None then Obs.Metrics.set_enabled true;
  let sections = List.filter (fun a -> a <> "--full" && a <> "--quick") args in
  let sections = if sections = [] then [ "all" ] else sections in
  let run = function
    | "table1" -> table1 ~full ~quick ()
    | "fig4" -> fig4 ()
    | "ablation" -> ablation ~full ()
    | "all" ->
      table1 ~full ~quick ();
      fig4 ();
      ablation ~full ()
    | other ->
      Fmt.epr "unknown section %S (expected table1|fig4|ablation|all)@." other;
      exit 2
  in
  List.iter run sections;
  (match !json_path with
   | None -> ()
   | Some path ->
     let mode = if quick then "quick" else if full then "full" else "default" in
     (try
        write_json ~mode path;
        Fmt.epr "wrote %s@." path
      with Sys_error msg ->
        Fmt.epr "cannot write %s: %s@." path msg;
        exit 2));
  if !failures > 0 then begin
    Fmt.epr "%d equivalence check(s) FAILED@." !failures;
    exit 1
  end
