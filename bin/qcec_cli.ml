(* Command-line front end: equivalence checking, distribution extraction,
   transformation, and benchmark-circuit generation over OpenQASM files. *)

open Cmdliner

let load path =
  try Circuit.Qasm3_parser.parse_any_file path with
  | Circuit.Qasm_parser.Parse_error (msg, line) ->
    Fmt.epr "%s:%d: %s@." path line msg;
    exit 2
  | Sys_error msg ->
    Fmt.epr "%s@." msg;
    exit 2

let strategy_conv =
  let parse s =
    match Qcec.Strategy.of_string s with
    | Ok s -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Qcec.Strategy.name s))

(* -- application-scheme selection ------------------------------------- *)

(* [--scheme] overrides [--strategy]: either a fixed strategy by name, or
   [auto] — run the analysis passes over both circuits and let the cost
   profiles pick between proportional and lookahead alternation. *)
type scheme_opt =
  | Scheme_auto
  | Scheme_fixed of Qcec.Strategy.t

let scheme_conv =
  let parse s =
    if s = "auto" then Ok Scheme_auto
    else
      match Qcec.Strategy.of_string s with
      | Ok st -> Ok (Scheme_fixed st)
      | Error e -> Error (`Msg e)
  in
  Arg.conv
    ( parse
    , fun ppf -> function
        | Scheme_auto -> Fmt.string ppf "auto"
        | Scheme_fixed s -> Fmt.string ppf (Qcec.Strategy.name s) )

let scheme_arg =
  Arg.(
    value
    & opt (some scheme_conv) None
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Application scheme: any strategy name, or $(b,auto) to run the \
           static analysis passes over both circuits and let their cost \
           profiles pick between proportional and lookahead alternation.  \
           Overrides $(b,--strategy)")

let resolve_scheme ~strategy ~scheme a b =
  match scheme with
  | None -> strategy
  | Some (Scheme_fixed s) -> s
  | Some Scheme_auto -> Qcec.Strategy.route a b

(* -- portfolio racing -------------------------------------------------- *)

(* [--strategy portfolio] races a composed candidate field (first
   definitive verdict wins) instead of running a single decider. *)
type strat_opt =
  | Strat of Qcec.Strategy.t
  | Strat_portfolio

let strat_opt_conv =
  let parse s =
    if s = "portfolio" then Ok Strat_portfolio
    else
      match Qcec.Strategy.of_string s with
      | Ok st -> Ok (Strat st)
      | Error e -> Error (`Msg e)
  in
  Arg.conv
    ( parse
    , fun ppf -> function
        | Strat s -> Fmt.string ppf (Qcec.Strategy.name s)
        | Strat_portfolio -> Fmt.string ppf "portfolio" )

(* a race of fewer than two candidates is a solo run in disguise *)
let portfolio_width_conv =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 2 -> Ok k
    | Some k -> Error (`Msg (Fmt.str "must be a width >= 2, got %d" k))
    | None -> Error (`Msg (Fmt.str "expected an integer width >= 2, got %s" s))
  in
  Arg.conv (parse, Fmt.int)

let portfolio_width_arg =
  Arg.(
    value
    & opt portfolio_width_conv 4
    & info [ "portfolio-width" ] ~docv:"K"
        ~doc:
          "Candidate deciders raced by $(b,--strategy portfolio): the \
           cost-model's solo pick leads a field of alternation orders and \
           simulative stimuli classes; the first definitive verdict wins \
           and the losers are cancelled at their next DD safepoint")

let pp_portfolio_report ppf (r : Qcec.Verify.portfolio_result) =
  Fmt.pf ppf "@[<v>portfolio race: %d candidates, winner %s (#%d%s) in %.4fs"
    (List.length r.Qcec.Verify.candidates)
    (Qcec.Strategy.name r.Qcec.Verify.winner_strategy)
    r.Qcec.Verify.winner_index
    (if r.Qcec.Verify.winner_definitive then ""
     else ", probabilistic: all shots agreed but no exact decider finished")
    r.Qcec.Verify.t_wall;
  List.iteri
    (fun i (c : Qcec.Verify.candidate_report) ->
      Fmt.pf ppf "@,  [%d] %-26s %-16s %.4fs" i
        (Qcec.Strategy.name c.Qcec.Verify.c_strategy)
        (Fmt.str "%a" Qcec.Verify.pp_candidate_outcome c.Qcec.Verify.c_outcome)
        c.Qcec.Verify.c_wall)
    r.Qcec.Verify.candidates;
  Fmt.pf ppf "@]"

let portfolio_json (r : Qcec.Verify.portfolio_result) =
  Obs.Json.Obj
    [ ("width", Obs.Json.Int (List.length r.Qcec.Verify.candidates))
    ; ("winner_index", Obs.Json.Int r.Qcec.Verify.winner_index)
    ; ( "winner_strategy"
      , Obs.Json.String (Qcec.Strategy.name r.Qcec.Verify.winner_strategy) )
    ; ("definitive", Obs.Json.Bool r.Qcec.Verify.winner_definitive)
    ; ("cancelled", Obs.Json.Int r.Qcec.Verify.races_cancelled)
    ; ("t_wall", Obs.Json.Float r.Qcec.Verify.t_wall)
    ; ( "candidates"
      , Obs.Json.List
          (List.map
             (fun (c : Qcec.Verify.candidate_report) ->
               Obs.Json.Obj
                 [ ( "strategy"
                   , Obs.Json.String (Qcec.Strategy.name c.Qcec.Verify.c_strategy) )
                 ; ( "outcome"
                   , Obs.Json.String
                       (Fmt.str "%a" Qcec.Verify.pp_candidate_outcome
                          c.Qcec.Verify.c_outcome) )
                 ; ("wall_seconds", Obs.Json.Float c.Qcec.Verify.c_wall)
                 ])
             r.Qcec.Verify.candidates) )
    ]

let perm_conv =
  let parse s =
    match String.split_on_char ',' s |> List.map int_of_string |> Array.of_list with
    | p when Circuit.Circ.is_permutation p -> Ok p
    | p ->
      Error
        (`Msg
           (Fmt.str "%s is not a permutation of 0..%d" s (Array.length p - 1)))
    | exception Failure _ ->
      Error (`Msg "expected a comma-separated permutation, e.g. 0,3,1,2")
  in
  Arg.conv (parse, fun ppf p ->
    Fmt.pf ppf "%a" Fmt.(array ~sep:(any ",") int) p)

(* exit code 2 = usage/input error, matching the parser failures above *)
let report_non_unitary op =
  Fmt.epr
    "qcec: circuit contains the non-unitary operation %a; transform it first \
     (qcec transform)@."
    Circuit.Op.pp op;
  exit 2

(* -- observability ---------------------------------------------------- *)

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Enable DD-package metrics collection and write counters, timing \
           spans and the result to $(docv) as JSON (schema qcec-stats/v1, \
           see docs/OBSERVABILITY.md)")

(* collection must be on before any DD work happens *)
let enable_stats = function None -> () | Some _ -> Obs.Metrics.set_enabled true

let write_stats path ~command ~files ~result =
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "qcec-stats/v1")
      ; ("command", Obs.Json.String command)
      ; ("files", Obs.Json.List (List.map (fun f -> Obs.Json.String f) files))
      ; ("result", Obs.Json.Obj result)
      ; ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()))
      ; ("spans", Obs.Span.to_json ())
      ]
  in
  try Obs.Json.to_file path doc
  with Sys_error msg ->
    Fmt.epr "qcec: cannot write stats file: %s@." msg;
    exit 2

let maybe_write_stats stats_json ~command ~files ~result =
  match stats_json with
  | None -> ()
  | Some path -> write_stats path ~command ~files ~result

(* -- verdict cache ----------------------------------------------------- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Open (creating if needed) the content-addressed verdict store at \
           $(docv): verdicts for already-seen circuit pairs are served from \
           it without any decision-diagram work, fresh verdicts are \
           appended (see docs/CACHING.md)")

let no_result_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-result-cache" ]
        ~doc:
          "Ignore the verdict store even when $(b,--cache-dir) or the \
           manifest requests one: every pair is recomputed")

(* Caching is strictly opt-in: no [--cache-dir] (or manifest [cache_dir])
   means no store is opened and every verdict is computed. *)
let open_store ~cache_dir ~no_result_cache =
  match cache_dir with
  | Some dir when not no_result_cache ->
    (match Cache_store.Store.open_dir dir with
     | Ok store -> Some store
     | Error msg ->
       Fmt.epr "qcec: cannot open verdict store: %s@." msg;
       exit 2)
  | _ -> None

(* -- distribution ------------------------------------------------------ *)

(* A negative cutoff would simulate outcomes of probability 0 and one of
   1 or more prunes every branch, so either is a usage error. *)
let cutoff_arg =
  let parse s =
    match float_of_string_opt s with
    | Some x when Qsim.Extraction.valid_cutoff x -> Ok x
    | Some _ -> Error (`Msg (Fmt.str "%s is outside [0, 1)" s))
    | None -> Error (`Msg (Fmt.str "expected a probability in [0, 1), got %s" s))
  in
  Arg.(
    value
    & opt (conv (parse, Fmt.float)) 1e-12
    & info [ "cutoff" ] ~doc:"branch pruning threshold, in [0, 1)")

let distribution_cmd =
  let run dyn_file static_file cutoff domains eps stats_json =
    enable_stats stats_json;
    let dyn = load dyn_file and static = load static_file in
    let r, reading =
      try
        Obs.Scope.run (fun () -> Qcec.Verify.distribution ~eps ~cutoff ~domains dyn static)
      with Qcec.Verify.Cbits_mismatch { dynamic; static } ->
        Fmt.epr "qcec distribution: %s writes %d classical bits but %s writes %d@."
          dyn_file dynamic static_file static;
        exit 2
    in
    Fmt.pr "%a@." Qcec.Verify.pp_distribution r;
    maybe_write_stats stats_json ~command:"distribution"
      ~files:[ dyn_file; static_file ]
      ~result:
        [ ("distributions_equal", Obs.Json.Bool r.Qcec.Verify.distributions_equal)
        ; ("total_variation", Obs.Json.Float r.Qcec.Verify.total_variation)
        ; ("lost_mass", Obs.Json.Float r.Qcec.Verify.lost_mass)
        ; ("t_extract", Obs.Json.Float r.Qcec.Verify.t_extract)
        ; ("t_simulate", Obs.Json.Float r.Qcec.Verify.t_simulate)
        ; ( "extraction"
          , Obs.Json.Obj
              [ ("leaves", Obs.Json.Int r.Qcec.Verify.extraction_stats.Qsim.Extraction.leaves)
              ; ( "branch_points"
                , Obs.Json.Int
                    r.Qcec.Verify.extraction_stats.Qsim.Extraction.branch_points )
              ; ("pruned", Obs.Json.Int r.Qcec.Verify.extraction_stats.Qsim.Extraction.pruned)
              ; ( "gate_applications"
                , Obs.Json.Int
                    r.Qcec.Verify.extraction_stats.Qsim.Extraction.gate_applications )
              ] )
        ; ("metrics", Obs.Metrics.to_json reading.Obs.Scope.metrics)
        ];
    exit (if r.Qcec.Verify.distributions_equal then 0 else 1)
  in
  let dyn = Arg.(required & pos 0 (some string) None & info [] ~docv:"DYNAMIC.qasm") in
  let static = Arg.(required & pos 1 (some string) None & info [] ~docv:"STATIC.qasm") in
  let domains =
    let parse s =
      match int_of_string_opt s with
      | Some k when k >= 1 -> Ok k
      | Some k -> Error (`Msg (Fmt.str "must be a domain count >= 1, got %d" k))
      | None -> Error (`Msg (Fmt.str "expected a domain count >= 1, got %s" s))
    in
    Arg.(
      value
      & opt (conv (parse, Fmt.int)) (Domain.recommended_domain_count ())
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "The most domains the check uses, the calling one included: the \
             reference runs beside the extraction walk, which splits where \
             both outcomes of a branch point survive the cutoff")
  in
  let eps =
    Arg.(value & opt float 1e-9 & info [ "eps" ] ~doc:"total-variation tolerance")
  in
  Cmd.v
    (Cmd.info "distribution"
       ~doc:
         "Compare the measurement-outcome distribution of a dynamic circuit \
          (extracted with the Section 5 scheme) against a static reference")
    Term.(
      const run $ dyn $ static $ cutoff_arg $ domains $ eps $ stats_json_arg)

(* -- extract ------------------------------------------------------------ *)

let extract_cmd =
  let run file cutoff tree top stats_json =
    enable_stats stats_json;
    let c = load file in
    if tree then begin
      Fmt.pr "%a@." Qsim.Extraction.pp_tree (Qsim.Extraction.tree ~cutoff c)
    end
    else begin
      let r = Qsim.Extraction.run ~cutoff c in
      Fmt.pr "%a@." Qcec.Distribution.pp
        (Qcec.Distribution.most_probable ~count:top r.Qsim.Extraction.distribution);
      Fmt.pr "(%d leaves, %d branch points, %d pruned, mass %.6f)@."
        r.Qsim.Extraction.stats.Qsim.Extraction.leaves
        r.Qsim.Extraction.stats.Qsim.Extraction.branch_points
        r.Qsim.Extraction.stats.Qsim.Extraction.pruned
        (Qcec.Distribution.mass r.Qsim.Extraction.distribution);
      maybe_write_stats stats_json ~command:"extract" ~files:[ file ]
        ~result:
          [ ("leaves", Obs.Json.Int r.Qsim.Extraction.stats.Qsim.Extraction.leaves)
          ; ( "branch_points"
            , Obs.Json.Int r.Qsim.Extraction.stats.Qsim.Extraction.branch_points )
          ; ("pruned", Obs.Json.Int r.Qsim.Extraction.stats.Qsim.Extraction.pruned)
          ; ( "gate_applications"
            , Obs.Json.Int r.Qsim.Extraction.stats.Qsim.Extraction.gate_applications )
          ; ("mass", Obs.Json.Float (Qcec.Distribution.mass r.Qsim.Extraction.distribution))
          ]
    end
  in
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.qasm") in
  let tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"print the branching tree (Fig. 4 style)")
  in
  let top = Arg.(value & opt int 20 & info [ "top" ] ~doc:"outcomes to print") in
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Extract the measurement-outcome distribution of a dynamic circuit")
    Term.(
      const run $ file $ cutoff_arg $ tree $ top $ stats_json_arg)

(* -- transform ------------------------------------------------------------ *)

let transform_cmd =
  let run file output draw =
    let c = load file in
    let out = Transform.Dynamic.to_static c in
    Fmt.epr "eliminated %d resets (+%d qubits), deferred %d measurements, replaced %d conditions@."
      out.Transform.Dynamic.resets_eliminated out.Transform.Dynamic.qubits_added
      out.Transform.Dynamic.measurements_deferred
      out.Transform.Dynamic.conditions_replaced;
    if draw then Circuit.Draw.print out.Transform.Dynamic.circuit
    else begin
      match output with
      | Some path -> Circuit.Qasm_printer.to_file path out.Transform.Dynamic.circuit
      | None -> print_string (Circuit.Qasm_printer.to_string out.Transform.Dynamic.circuit)
    end
  in
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.qasm") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.qasm")
  in
  let draw = Arg.(value & flag & info [ "draw" ] ~doc:"print ASCII art instead of QASM") in
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Apply the Section 4 scheme (reset substitution + deferred measurement) \
          and emit the unitary reconstruction")
    Term.(const run $ file $ output $ draw)

(* -- optimize ------------------------------------------------------------ *)

let optimize_cmd =
  let run file output verify =
    let c = load file in
    let out = Qcompile.Optimize.run c in
    let s = out.Qcompile.Optimize.stats in
    Fmt.epr "%d -> %d unitary ops (%d cancelled, %d merged, %d fused)@."
      s.Qcompile.Optimize.before s.Qcompile.Optimize.after s.Qcompile.Optimize.cancelled
      s.Qcompile.Optimize.merged s.Qcompile.Optimize.fused;
    if verify then begin
      let r =
        try Qcec.Verify.functional c out.Qcompile.Optimize.circuit
        with Qcec.Strategy.Non_unitary op -> report_non_unitary op
      in
      Fmt.epr "verified: %s@."
        (if r.Qcec.Verify.equivalent then "equivalent" else "NOT EQUIVALENT");
      if not r.Qcec.Verify.equivalent then exit 1
    end;
    match output with
    | Some path -> Circuit.Qasm_printer.to_file path out.Qcompile.Optimize.circuit
    | None -> print_string (Circuit.Qasm_printer.to_string out.Qcompile.Optimize.circuit)
  in
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.qasm") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.qasm")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"equivalence-check the result")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Peephole-optimize a circuit (cancellation, merging, fusion)")
    Term.(const run $ file $ output $ verify)

(* -- lint ------------------------------------------------------------- *)

(* Parse a file and lint it; a parse failure becomes a QA000 diagnostic
   rather than an abort, so one bad file doesn't hide the others.  Parsed
   files additionally get a classifier profile for the v2 report. *)
let lint_file path =
  match Circuit.Qasm3_parser.parse_any_file_located path with
  | c, lines ->
    Analysis.Report.entry ~profile:(Analysis.classify c) path
      (Analysis.lint ~file:path ~lines c)
  | exception Circuit.Qasm_parser.Parse_error (msg, line) ->
    Analysis.Report.entry path [ Analysis.Lint.of_parse_error ~file:path ~line msg ]
  | exception Sys_error msg ->
    Analysis.Report.entry path [ Analysis.Lint.of_parse_error ~file:path ~line:0 msg ]

let lint_cmd =
  let run files json quiet =
    let report = List.map lint_file files in
    let all =
      List.concat_map (fun e -> e.Analysis.Report.diagnostics) report
    in
    if not quiet then
      List.iter (fun d -> Fmt.pr "%a@." Analysis.Diagnostic.pp d) all;
    let s = Analysis.Diagnostic.summarize all in
    if not quiet then
      Fmt.epr "%d error%s, %d warning%s, %d info@."
        s.Analysis.Diagnostic.errors
        (if s.Analysis.Diagnostic.errors = 1 then "" else "s")
        s.Analysis.Diagnostic.warnings
        (if s.Analysis.Diagnostic.warnings = 1 then "" else "s")
        s.Analysis.Diagnostic.infos;
    (match json with
     | None -> ()
     | Some path ->
       let doc = Analysis.Report.to_json report in
       if path = "-" then print_string (Obs.Json.to_string ~pretty:true doc)
       else begin
         try Obs.Json.to_file path doc
         with Sys_error msg ->
           Fmt.epr "qcec: cannot write lint report: %s@." msg;
           exit 2
       end);
    exit (if Analysis.Diagnostic.has_errors all then 1 else 0)
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE.qasm")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the report as JSON (schema qcec-lint/v2: the v1 fields \
             plus a per-file classifier block, see docs/ANALYSIS.md) to \
             $(docv), or to stdout for \"-\"")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress text diagnostics")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze circuits: dataflow lint (unused qubits, gates \
          after final measurement, dead classical writes, constant \
          conditions, ...) with located diagnostics.  Exits 1 if any \
          error-severity finding is reported, 0 on warnings only")
    Term.(const run $ files $ json $ quiet)

(* -- analyze ----------------------------------------------------------- *)

(* Run the abstract-interpretation passes (Clifford domain, interaction
   graph, cancellation structure, cost model) and emit the per-file
   qcec-analysis/v1 profiles.  With exactly two files, the document also
   carries the cost curves' divergence and the recommended application
   scheme for checking them against each other. *)
let analyze_cmd =
  let run files output =
    let entries =
      List.map
        (fun path ->
          let c = load path in
          (path, Obs.Span.with_ "analysis.profile" (fun () ->
             Analysis.Cost.profile c)))
        files
    in
    let file_json (path, p) =
      match Analysis.Cost.to_json p with
      | Obs.Json.Obj fields ->
        Obs.Json.Obj (("file", Obs.Json.String path) :: fields)
      | other -> other
    in
    let pair_fields =
      match entries with
      | [ (_, a); (_, b) ] ->
        [ ("divergence", Obs.Json.Float (Analysis.Cost.divergence a b))
        ; ( "recommended_scheme"
          , Obs.Json.String
              (Qcec.Strategy.name (Qcec.Strategy.route_profiles a b)) )
        ]
      | _ -> []
    in
    let doc =
      Obs.Json.Obj
        ([ ("schema", Obs.Json.String "qcec-analysis/v1")
         ; ("files", Obs.Json.List (List.map file_json entries))
         ]
        @ pair_fields)
    in
    match output with
    | None | Some "-" -> print_string (Obs.Json.to_string ~pretty:true doc)
    | Some path ->
      (try Obs.Json.to_file path doc
       with Sys_error msg ->
         Fmt.epr "qcec: cannot write analysis report: %s@." msg;
         exit 2)
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE.qasm")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the qcec-analysis/v1 JSON document to $(docv) instead of \
             stdout")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static analysis passes (Clifford prefix, qubit-interaction \
          graph, cancellation structure, per-gate cost profile) over \
          circuits and emit qcec-analysis/v1 JSON.  Given exactly two \
          files, also reports which application scheme their cost profiles \
          recommend for equivalence checking.  Exits 2 on parse failure")
    Term.(const run $ files $ output)

(* -- check and verify ------------------------------------------------- *)

(* The one run body of [check] and [verify].  [verify] adds a static
   pre-flight ([~preflight]): lint both inputs, classify them, and — unless
   [transform] — reject circuits the selected unitary-only strategy cannot
   handle with a located QA008, before any DD package is constructed.
   [check] skips the pre-flight, always transforms dynamic inputs with the
   Section 4 scheme, and opens no verdict store. *)
let functional_run ~command ~preflight file_a file_b strategy scheme perm
    transform quiet stats_json cache_dir no_result_cache width =
  enable_stats stats_json;
  let store = open_store ~cache_dir ~no_result_cache in
  let a, b, profiles =
    if not preflight then (load file_a, load file_b, None)
    else begin
      let load_located path =
        try Circuit.Qasm3_parser.parse_any_file_located path with
        | Circuit.Qasm_parser.Parse_error (msg, line) ->
          Fmt.epr "%a@." Analysis.Diagnostic.pp
            (Analysis.Lint.of_parse_error ~file:path ~line msg);
          exit 2
        | Sys_error msg ->
          Fmt.epr "%s@." msg;
          exit 2
      in
      let a, lines_a = load_located file_a in
      let b, lines_b = load_located file_b in
      (* pre-flight 1: lint; error-severity findings block the check *)
      let diags =
        Obs.Span.with_ "analysis.lint" (fun () ->
          Analysis.lint ~file:file_a ~lines:lines_a a
          @ Analysis.lint ~file:file_b ~lines:lines_b b)
      in
      List.iter (fun d -> Fmt.epr "%a@." Analysis.Diagnostic.pp d) diags;
      if Analysis.Diagnostic.has_errors diags then exit 2;
      (* pre-flight 2: scheme applicability *)
      let profiles =
        List.map
          (fun (file, lines, c) -> (file, lines, Analysis.classify c))
          [ (file_a, lines_a, a); (file_b, lines_b, b) ]
      in
      if not transform then
        List.iter
          (fun (file, lines, p) ->
            match
              Analysis.Classify.scheme_rejection ~file ~lines
                ~scheme:Analysis.Classify.Unitary_scheme p
            with
            | Some d ->
              Fmt.epr "%a@." Analysis.Diagnostic.pp d;
              exit 2
            | None -> ())
          profiles;
      (a, b, Some (List.map (fun (_, _, p) -> p) profiles))
    end
  in
  let on_dynamic = if transform then `Transform else `Reject in
  (* the check is read in its own scope: a race's reading covers every
     candidate *)
  let guarded f =
    try Obs.Scope.run f with
    | Qcec.Strategy.Non_unitary op -> report_non_unitary op
    | Qcec.Verify.Rejected d ->
      Fmt.epr "%a@." Analysis.Diagnostic.pp d;
      exit 2
    | Qcec.Verify.Perm_mismatch { entries; qubits } ->
      Fmt.epr "qcec %s: --perm has %d entries but the aligned register has %d qubits@."
        command entries qubits;
      exit 2
  in
  let (r, portfolio), reading =
    match strategy, scheme with
    | Strat_portfolio, None ->
      let candidates =
        List.map
          (fun s -> (s, Dd.Registry.default))
          (Qcec.Strategy.race_field ~width a b)
      in
      let pr, reading =
        guarded (fun () ->
          Qcec.Verify.portfolio ~candidates ?perm ~on_dynamic ?cache:store a b)
      in
      if not quiet then Fmt.pr "%a@." pp_portfolio_report pr;
      ((pr.Qcec.Verify.winner, Some pr), reading)
    | Strat_portfolio, Some _ ->
      (* silently coercing the race to a solo run would drop an explicit
         request; the combination is a contradiction, so refuse it *)
      Fmt.epr
        "qcec %s: --strategy portfolio cannot be combined with --scheme \
         (the race composes its own candidate field)@."
        command;
      exit 2
    | Strat strategy, _ ->
      let strategy = resolve_scheme ~strategy ~scheme a b in
      let r, reading =
        guarded (fun () ->
          Qcec.Verify.functional ~strategy ?perm ~on_dynamic ?cache:store a b)
      in
      ((r, None), reading)
  in
  Option.iter Cache_store.Store.close store;
  if not quiet then begin
    Fmt.pr "%a@." Qcec.Verify.pp_functional r;
    if r.Qcec.Verify.cached then Fmt.pr "verdict served from cache@."
  end;
  let strategy_name =
    match portfolio with
    | Some pr ->
      Fmt.str "portfolio(%s)" (Qcec.Strategy.name pr.Qcec.Verify.winner_strategy)
    | None -> Qcec.Strategy.name r.Qcec.Verify.strategy
  in
  maybe_write_stats stats_json ~command ~files:[ file_a; file_b ]
    ~result:
      ([ ("equivalent", Obs.Json.Bool r.Qcec.Verify.equivalent)
       ; ("exactly_equal", Obs.Json.Bool r.Qcec.Verify.exactly_equal)
       ; ("strategy", Obs.Json.String strategy_name)
       ; ("t_transform", Obs.Json.Float r.Qcec.Verify.t_transform)
       ; ("t_check", Obs.Json.Float r.Qcec.Verify.t_check)
       ; ("transformed_qubits", Obs.Json.Int r.Qcec.Verify.transformed_qubits)
       ; ("peak_nodes", Obs.Json.Int r.Qcec.Verify.peak_nodes)
       ; ("cached", Obs.Json.Bool r.Qcec.Verify.cached)
       ]
      @ (match profiles with
         | Some ps -> [ ("profiles", Obs.Json.List (List.map Analysis.Classify.to_json ps)) ]
         | None -> [])
      @ [ ("metrics", Obs.Metrics.to_json reading.Obs.Scope.metrics) ]
      @
      match portfolio with
      | Some pr -> [ ("portfolio", portfolio_json pr) ]
      | None -> []);
  if r.Qcec.Verify.equivalent then begin
    Fmt.pr "equivalent@.";
    exit 0
  end
  else begin
    Fmt.pr "not equivalent@.";
    exit 1
  end

(* [check] and [verify] share every argument but [verify]'s [--transform]
   and verdict-store options, which [check] fixes to on and off. *)
let functional_cmd ~preflight name ~doc ~transform ~cache_dir ~no_result_cache =
  let file_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A.qasm") in
  let file_b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B.qasm") in
  let strategy =
    Arg.(
      value
      & opt strat_opt_conv (Strat Qcec.Strategy.Proportional)
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "construction, proportional, simulation:<shots>, or portfolio \
             (race candidate deciders, first verdict wins)")
  in
  let perm =
    Arg.(
      value
      & opt (some perm_conv) None
      & info [ "p"; "perm" ] ~docv:"PERM"
          ~doc:"wire alignment applied to the second circuit, e.g. 0,3,1,2")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"only print the verdict") in
  let run = functional_run ~command:name ~preflight in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run
      $ file_a $ file_b $ strategy $ scheme_arg $ perm $ transform $ quiet
      $ stats_json_arg $ cache_dir $ no_result_cache $ portfolio_width_arg)

let check_cmd =
  functional_cmd ~preflight:false "check"
    ~doc:
      "Check full functional equivalence of two circuits (dynamic inputs are \
       transformed with the Section 4 scheme first)"
    ~transform:(Term.const true) ~cache_dir:(Term.const None)
    ~no_result_cache:(Term.const false)

let verify_cmd =
  functional_cmd ~preflight:true "verify"
    ~doc:
      "Check functional equivalence with a static pre-flight: lint both \
       circuits and reject ones the selected (unitary-only) strategy cannot \
       handle, with located diagnostics, before any decision-diagram work.  \
       Exit 2 on rejection; $(b,--transform) restores the automatic \
       transformation of $(b,check)"
    ~transform:
      Arg.(
        value
        & flag
        & info [ "transform" ]
            ~doc:
              "Transform dynamic inputs with the Section 4 scheme instead of \
               rejecting them (the automatic routing $(b,check) performs)")
    ~cache_dir:cache_dir_arg ~no_result_cache:no_result_cache_arg

(* -- batch ------------------------------------------------------------ *)

(* Batch verification over the engine's domain worker pool: one manifest
   (or an even list of QASM files, paired consecutively) in, one
   qcec-result/v1 JSONL stream and an optional qcec-batch/v1 aggregate
   out.  Per-job failures are structured results, never batch aborts. *)
let batch_cmd =
  let run inputs workers out summary strategy timeout retries seed node_limit
      no_lint quiet cache_dir no_result_cache portfolio =
    (* per-job metric deltas are part of the result schema, so collection
       is on for batch runs (flipped before any worker spawns) *)
    Obs.Metrics.set_enabled true;
    let usage msg =
      Fmt.epr "qcec batch: %s@." msg;
      exit 2
    in
    (match portfolio with
     | Some w when w <> 0 && w < 2 ->
       usage (Fmt.str "--portfolio must be a width >= 2 (or 0 to disable), got %d" w)
     | _ -> ());
    let manifest =
      match inputs with
      | [ path ] when Filename.check_suffix path ".json" ->
        (match Engine.Manifest.load path with Ok m -> m | Error e -> usage e)
      | files ->
        (match Engine.Manifest.pair_files files with
         | Ok pairs -> Engine.Manifest.of_pairs ?seed pairs
         | Error e -> usage e)
    in
    (* command-line settings override manifest defaults job by job *)
    let specs =
      List.map
        (fun (s : Engine.Job.spec) ->
          { s with
            Engine.Job.strategy =
              (match s.Engine.Job.strategy with
               | Some _ as st -> st
               | None -> strategy)
          ; timeout =
              (match timeout with Some _ as t -> t | None -> s.Engine.Job.timeout)
          ; retries = (match retries with Some r -> r | None -> s.Engine.Job.retries)
          ; seed =
              (match seed with
               | Some s0 -> Some (s0 + s.Engine.Job.index)
               | None -> s.Engine.Job.seed)
          ; portfolio =
              (match portfolio with
               | Some 0 -> None
               | Some _ as p -> p
               | None -> s.Engine.Job.portfolio)
          })
        manifest.Engine.Manifest.jobs
    in
    (* an empty (or all-skipped) manifest is a legitimate no-op batch, not
       a usage error: it reports a zero-job summary and exits 0 *)
    if specs = [] && not quiet then
      Fmt.epr "qcec batch: 0 jobs (manifest is empty or every job is skipped)@.";
    let store =
      let cache_dir =
        match cache_dir with
        | Some _ as d -> d
        | None -> manifest.Engine.Manifest.cache_dir
      in
      open_store ~cache_dir ~no_result_cache
    in
    let oc, close_oc =
      match out with
      | "-" -> (stdout, fun () -> ())
      | path ->
        (match open_out path with
         | oc -> (oc, fun () -> close_out oc)
         | exception Sys_error msg -> usage msg)
    in
    let cfg =
      { Engine.Pool.workers
      ; node_limit
      ; lint = not no_lint
      ; on_result =
          Some
            (fun r ->
              Engine.Results.write_jsonl oc r;
              if (not quiet) && out <> "-" then
                Fmt.epr "%a@." Engine.Job.pp_result r)
      ; cache = store
      }
    in
    let batch = Engine.Pool.run cfg specs in
    Option.iter Cache_store.Store.close store;
    close_oc ();
    (match summary with
     | None -> ()
     | Some path ->
       let doc = Engine.Results.aggregate batch in
       if path = "-" then Fmt.pr "%s@." (Obs.Json.to_string ~pretty:true doc)
       else (
         try Obs.Json.to_file path doc
         with Sys_error msg -> usage (Fmt.str "cannot write summary: %s" msg)));
    let not_ok =
      List.filter
        (fun r -> not (Engine.Job.succeeded r))
        batch.Engine.Pool.results
    in
    if not quiet then begin
      Fmt.epr "%d jobs on %d workers in %.2fs wall; %d not equivalent or failed@."
        (List.length batch.Engine.Pool.results)
        batch.Engine.Pool.workers batch.Engine.Pool.wall_seconds
        (List.length not_ok);
      if store <> None then
        Fmt.epr "verdict cache: %d hits, %d misses, %d inserted@."
          (Obs.Metrics.find batch.Engine.Pool.metrics "cache.result.hits")
          (Obs.Metrics.find batch.Engine.Pool.metrics "cache.result.misses")
          (Obs.Metrics.find batch.Engine.Pool.metrics "cache.result.inserts")
    end;
    exit (if not_ok = [] then 0 else 1)
  in
  let inputs =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"MANIFEST.json|A.qasm B.qasm ..."
          ~doc:
            "Either a single qcec-manifest/v1 JSON file, or an even list of \
             QASM files paired consecutively")
  in
  let workers =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Workers, the calling domain included (default: the runtime's \
             recommended domain count); clamped to the number of jobs")
  in
  let out =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Stream per-job results (schema qcec-result/v1, one JSON object \
             per line) to $(docv), or to stdout for \"-\" (the default)")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run aggregate (schema qcec-batch/v1: latency \
             percentiles, speedup, exit classes, merged metrics) to $(docv), \
             or to stdout for \"-\"")
  in
  let strategy =
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:"default strategy for jobs that do not pin one")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-job wall-clock budget (cancelled cooperatively at DD \
             safepoints); overrides manifest timeouts")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Extra attempts for timed-out jobs; overrides manifest retries")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Batch stimuli seed; job $(i,i) draws its random stimuli from \
             seed N+i, making simulative verdicts reproducible across \
             worker counts")
  in
  let node_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-limit" ] ~docv:"N"
          ~doc:
            "Fail a job (exit class node_limit) once its DD package holds \
             more than $(docv) nodes at a safepoint: the live nodes plus \
             the garbage since the last sweep, which the default GC keeps \
             within about twice the live set plus 512 nodes")
  in
  let no_lint =
    Arg.(
      value & flag
      & info [ "no-lint" ] ~doc:"skip the per-job lint pre-flight")
  in
  let portfolio =
    Arg.(
      value
      & opt (some int) None
      & info [ "portfolio" ] ~docv:"K"
          ~doc:
            "Race up to $(docv) candidate deciders per job (first definitive \
             verdict wins; losers are cancelled at their next safepoint), \
             overriding manifest portfolio settings.  Race domains are \
             borrowed from the $(b,--jobs) budget, so total parallelism \
             never exceeds it.  0 disables a manifest-defaulted portfolio")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress progress on stderr")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Verify many circuit pairs in parallel on a domain worker pool. \
          Results stream as qcec-result/v1 JSONL; per-job parse errors, \
          lint errors, rejections and timeouts become structured failures \
          instead of aborting the batch.  Exits 0 only if every job \
          verified equivalent")
    Term.(
      const run $ inputs $ workers $ out $ summary $ strategy $ timeout
      $ retries $ seed $ node_limit $ no_lint $ quiet $ cache_dir_arg
      $ no_result_cache_arg $ portfolio)

(* -- stats ------------------------------------------------------------ *)

let stats_cmd =
  let run file =
    let c = load file in
    let s = Circuit.Stats.compute c in
    Fmt.pr "%s: %d qubits, %d classical bits@." c.Circuit.Circ.name
      c.Circuit.Circ.num_qubits c.Circuit.Circ.num_cbits;
    Fmt.pr "%a@." Circuit.Stats.pp s;
    Fmt.pr "dynamic: %b@." (Circuit.Circ.is_dynamic c)
  in
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.qasm") in
  Cmd.v (Cmd.info "stats" ~doc:"Print structural circuit metrics") Term.(const run $ file)

(* -- draw ------------------------------------------------------------ *)

let draw_cmd =
  let run file =
    Circuit.Draw.print (load file)
  in
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.qasm") in
  Cmd.v (Cmd.info "draw" ~doc:"Render a circuit as ASCII art") Term.(const run $ file)

(* -- gen ------------------------------------------------------------ *)

let gen_cmd =
  let run family n theta dynamic output =
    let circuit =
      match family with
      | "bv" ->
        let s = Algorithms.Bv.hidden_string ~seed:n n in
        if dynamic then Algorithms.Bv.dynamic s else Algorithms.Bv.static s
      | "qft" -> if dynamic then Algorithms.Qft.dynamic n else Algorithms.Qft.static n
      | "qpe" ->
        let theta =
          match theta with
          | Some t -> t
          | None -> Algorithms.Qpe.random_theta ~seed:n ~bits:n
        in
        if dynamic then Algorithms.Qpe.dynamic ~theta ~bits:n
        else Algorithms.Qpe.static ~theta ~bits:n
      | "ghz" -> Algorithms.Ghz.static n
      | other ->
        Fmt.epr "unknown family %S (bv, qft, qpe, ghz)@." other;
        exit 2
    in
    match output with
    | Some path -> Circuit.Qasm_printer.to_file path circuit
    | None -> print_string (Circuit.Qasm_printer.to_string circuit)
  in
  let family =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc:"bv|qft|qpe|ghz")
  in
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"size (qubits / precision bits)") in
  let theta =
    Arg.(value & opt (some float) None & info [ "theta" ] ~doc:"QPE phase in [0,1)")
  in
  let dynamic = Arg.(value & flag & info [ "dynamic" ] ~doc:"emit the dynamic variant") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.qasm")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark circuit as OpenQASM")
    Term.(const run $ family $ n $ theta $ dynamic $ output)

(* [qcec batch ... | head] must exit quietly once the reader is gone: with
   SIGPIPE ignored, writes fail as EPIPE ([Sys_error "Broken pipe"] on
   channels), which we treat as a clean early exit.  The [Format] std
   formatters register an at_exit flush that would re-raise on the same
   broken pipe, so their output functions are muted first. *)
let mute_std_formatters () =
  List.iter
    (fun fmt ->
      Format.pp_set_formatter_out_functions fmt
        { (Format.pp_get_formatter_out_functions fmt ()) with
          Format.out_string = (fun _ _ _ -> ())
        ; out_flush = ignore
        })
    [ Format.std_formatter; Format.err_formatter ]

let is_broken_pipe = function
  | Sys_error msg -> msg = "Broken pipe" || String.length msg > 11 && String.sub msg 0 11 = "Broken pipe"
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | _ -> false

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let info =
    Cmd.info "qcec" ~version:Qcec.Version.string
      ~doc:"Equivalence checking of quantum circuits with non-unitary operations"
  in
  let cmd =
    Cmd.group info
      [ check_cmd; verify_cmd; batch_cmd; lint_cmd; analyze_cmd
      ; distribution_cmd; extract_cmd; transform_cmd; optimize_cmd
      ; stats_cmd; draw_cmd; gen_cmd ]
  in
  let code =
    try Cmd.eval ~catch:false cmd with
    | e when is_broken_pipe e ->
      mute_std_formatters ();
      0
    | e ->
      Fmt.epr "qcec: internal error, uncaught exception:@.%s@." (Printexc.to_string e);
      Cmd.Exit.internal_error
  in
  (try flush stdout with Sys_error _ -> mute_std_formatters ());
  exit code
