(* The four ledger workloads; README.md says why each was chosen.

   A workload turns the workload seed into its inputs (the only place the
   seed is read) and runs one repetition over them.  Every check carries
   the answer its input was built to have, so the benchmark itself catches
   a wrong verdict.  At most two domains run at once: [batch] uses a
   two-worker pool and [race] two candidates, while the calling domain
   only waits. *)

module Circ = Circuit.Circ
module Pair = Algorithms.Pair
module J = Qcec_json

let now = Obs.Clock.now

type size =
  | Default
  | Smoke

type verdict =
  | Equivalent
  | Not_equivalent
  | Failed of string

type check =
  { label : string
  ; expected : bool  (** the pair was built equivalent *)
  ; verdict : verdict
  ; latency : float option
        (** request to verdict, seconds; [None] for reference runs that
            stay out of the latency sample *)
  ; columns : (string * float) list  (** the Table 1 columns it reports *)
  }

type rep =
  { wall : float
  ; checks : check list
  ; layers : (string * float) list
        (** raw per-layer readings (seconds or counts) of a traced
            repetition; empty otherwise *)
  }

type prepared =
  { run : Trace.t option -> rep
  ; cleanup : unit -> unit
  }

type t =
  { name : string
  ; digests : size -> seed:int -> string list
        (** [Circ.digest] of every generated circuit, in order *)
  ; prepare : size -> seed:int -> workdir:string -> prepared
  }

(* ------------------------------------------------------------------ *)
(* Seeded generation                                                   *)

(* One stream per purpose, so resizing one family never shifts the draws
   of another. *)
let stream seed salt = Random.State.make [| seed; salt |]

(* A hidden string with exactly half its bits set.  The seed picks which
   ones, so the oracle's CX count, and with it the check's cost, does not
   vary with the seed. *)
let half_weight_string st n =
  let idx = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  let s = Array.make n false in
  for k = 0 to (n / 2) - 1 do
    s.(idx.(k)) <- true
  done;
  s

(* A phase that needs all [bits] bits (an odd multiple of 2^-bits). *)
let theta st ~bits = Algorithms.Qpe.random_theta ~seed:(Random.State.bits st) ~bits

let bv st n = Algorithms.Bv.make (half_weight_string st n)

(* A phase-only S prepended on wire 0 of the static side: the pair is not
   equivalent, yet every computational-basis stimulus still passes it.  The
   wire is fixed because the cost of refuting grows with it: on QFT the
   alternating check's peak node count doubles per wire (a seeded S on a
   high wire of QFT-24 took 40 s and 3.5 GB), on aligned QPE wire 1 already
   costs 7x wire 0. *)
let s_mutant (c : Circ.t) =
  Circ.make ~name:(c.Circ.name ^ "+s") ~qubits:c.Circ.num_qubits ~cbits:c.Circ.num_cbits
    (Circuit.Op.apply Circuit.Gates.S 0 :: c.Circ.ops)

let mutate_pair (p : Pair.t) = { p with Pair.static_circuit = s_mutant p.Pair.static_circuit }

let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let verdict_of = function
  | Ok true -> Equivalent
  | Ok false -> Not_equivalent
  | Error msg -> Failed msg

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let fmax f l = List.fold_left (fun acc x -> Float.max acc (f x)) 0.0 l

(* The percentile [q] (0..1) of a sample, interpolating linearly between
   order statistics; [0.] for an empty sample. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

(* The transform layer measured from outside: the Section 4 pipeline over
   every dynamic input, in a traced repetition only. *)
let transform_layer tr circuits =
  let t0 = now () in
  let ops =
    sum
      (fun c ->
        Trace.span tr ~cat:"transform" ("Transform.Dynamic.transform " ^ c.Circ.name)
          (fun () -> float (Circ.total_ops (Transform.Dynamic.transform c))))
      (List.filter Circ.is_dynamic circuits)
  in
  [ ("transform.busy_s", now () -. t0); ("transform.ops_out", ops) ]

(* A labelled pair with its known answer. *)
type case =
  { id : string
  ; answer : bool
  ; pair : Pair.t
  }

let case_digests cases =
  List.concat_map
    (fun c -> [ Circ.digest c.pair.Pair.static_circuit; Circ.digest c.pair.Pair.dynamic_circuit ])
    cases

(* ------------------------------------------------------------------ *)
(* functional: Scheme 1 (Section 4 transform + alternating DD check)   *)

let functional_cases size seed =
  let bv_n, qft_n, qpe_bits, bv_m, qft_m, qpe_m =
    match size with
    | Default -> (128, 64, 9, 64, 40, 8)
    | Smoke -> (8, 6, 4, 6, 5, 3)
  in
  let qpe st bits = Algorithms.Qpe.make_textbook ~theta:(theta st ~bits) ~bits in
  [ { id = Fmt.str "bv_%d" bv_n; answer = true; pair = bv (stream seed 1) (bv_n - 1) }
  ; { id = Fmt.str "qft_%d" qft_n; answer = true; pair = Algorithms.Qft.make qft_n }
  ; { id = Fmt.str "qpe_textbook_%d" qpe_bits
    ; answer = true
    ; pair = qpe (stream seed 2) qpe_bits
    }
  ; { id = Fmt.str "bv_%d+s" bv_m
    ; answer = false
    ; pair = mutate_pair (bv (stream seed 3) (bv_m - 1))
    }
  ; { id = Fmt.str "qft_%d+s" qft_m
    ; answer = false
    ; pair = mutate_pair (Algorithms.Qft.make qft_m)
    }
  ; { id = Fmt.str "qpe_textbook_%d+s" qpe_m
    ; answer = false
    ; pair = mutate_pair (qpe (stream seed 4) qpe_m)
    }
  ]

let functional_run cases tr =
  let t0 = now () in
  let results =
    List.map
      (fun c ->
        let p = c.pair in
        let s = now () in
        let r =
          attempt (fun () ->
            Trace.span tr ~cat:"verify" ("Verify.functional " ^ c.id) (fun () ->
              Qcec.Verify.functional ~perm:p.Pair.dyn_to_static p.Pair.static_circuit
                p.Pair.dynamic_circuit))
        in
        (c, r, now () -. s))
      cases
  in
  let wall = now () -. t0 in
  let checks =
    List.map
      (fun (c, r, latency) ->
        { label = c.id
        ; expected = c.answer
        ; verdict = verdict_of (Result.map (fun r -> r.Qcec.Verify.equivalent) r)
        ; latency = Some latency
        ; columns =
            (match r with
             | Ok r -> [ ("t_trans", r.Qcec.Verify.t_transform); ("t_ver", r.Qcec.Verify.t_check) ]
             | Error _ -> [])
        })
      results
  in
  let layers =
    match tr with
    | None -> []
    | Some _ ->
      let ok = List.filter_map (fun (_, r, _) -> Result.to_option r) results in
      [ ("strategy.check_s", sum (fun (r : Qcec.Verify.functional_result) -> r.t_check) ok)
      ; ( "strategy.peak_nodes"
        , fmax (fun (r : Qcec.Verify.functional_result) -> float r.peak_nodes) ok )
      ]
      @ transform_layer tr (List.map (fun c -> c.pair.Pair.dynamic_circuit) cases)
  in
  { wall; checks; layers }

let functional =
  { name = "functional"
  ; digests = (fun size ~seed -> case_digests (functional_cases size seed))
  ; prepare =
      (fun size ~seed ~workdir:_ ->
        let cases = functional_cases size seed in
        { run = functional_run cases; cleanup = ignore })
  }

(* ------------------------------------------------------------------ *)
(* extraction: Scheme 2 (Section 5 extraction against simulation)      *)

let extraction_cases size seed =
  let qft_n, iqpe_bits, phase_bits, bv_n =
    match size with
    | Default -> (15, 11, 17, 128)
    | Smoke -> (4, 3, 5, 8)
  in
  [ { id = Fmt.str "qft_%d" qft_n; answer = true; pair = Algorithms.Qft.make qft_n }
  ; { id = Fmt.str "iqpe_%d_phase_%d" iqpe_bits phase_bits
    ; answer = true
    ; pair =
        Algorithms.Qpe.make ~theta:(theta (stream seed 1) ~bits:phase_bits) ~bits:iqpe_bits
    }
  ; { id = Fmt.str "bv_%d" bv_n; answer = true; pair = bv (stream seed 2) (bv_n - 1) }
  ]

let extraction_run cases tr =
  let t0 = now () in
  let results =
    List.map
      (fun c ->
        let p = c.pair in
        let s = now () in
        let r =
          attempt (fun () ->
            Trace.span tr ~cat:"verify" ("Verify.distribution " ^ c.id) (fun () ->
              Qcec.Verify.distribution p.Pair.dynamic_circuit p.Pair.static_circuit))
        in
        (c, r, now () -. s))
      cases
  in
  let wall = now () -. t0 in
  let checks =
    List.map
      (fun (c, r, latency) ->
        { label = c.id
        ; expected = c.answer
        ; verdict = verdict_of (Result.map (fun r -> r.Qcec.Verify.distributions_equal) r)
        ; latency = Some latency
        ; columns =
            (match r with
             | Ok r ->
               [ ("t_extract", r.Qcec.Verify.t_extract); ("t_sim", r.Qcec.Verify.t_simulate) ]
             | Error _ -> [])
        })
      results
  in
  let layers =
    match tr with
    | None -> []
    | Some _ ->
      let ok = List.filter_map (fun (_, r, _) -> Result.to_option r) results in
      let stat f = sum (fun r -> float (f r.Qcec.Verify.extraction_stats)) ok in
      [ ("extract.busy_s", sum (fun r -> r.Qcec.Verify.t_extract) ok)
      ; ("sim.busy_s", sum (fun r -> r.Qcec.Verify.t_simulate) ok)
      ; ("extract.leaves", stat (fun s -> s.Qsim.Extraction.leaves))
      ; ("extract.branch_points", stat (fun s -> s.Qsim.Extraction.branch_points))
      ; ("extract.gate_applications", stat (fun s -> s.Qsim.Extraction.gate_applications))
      ]
  in
  { wall; checks; layers }

let extraction =
  { name = "extraction"
  ; digests = (fun size ~seed -> case_digests (extraction_cases size seed))
  ; prepare =
      (fun size ~seed ~workdir:_ ->
        let cases = extraction_cases size seed in
        { run = extraction_run cases; cleanup = ignore })
  }

(* ------------------------------------------------------------------ *)
(* batch: a qcec-manifest/v1 of QASM files through the worker pool     *)

type job =
  { j_label : string
  ; j_expected : bool
  ; a : Circ.t
  ; b : Circ.t
  ; perm : int array option
  }

(* OpenQASM 2 has no spelling for most singly-controlled gates, so the
   original side of a compile-verify pair expands exactly those into
   {u3, cx}; everything else stays as drawn. *)
let printable (c : Circ.t) =
  let spell op =
    let single = Circ.make ~name:"op" ~qubits:c.Circ.num_qubits ~cbits:0 [ op ] in
    match Circuit.Qasm_printer.to_string single with
    | _ -> [ op ]
    | exception Failure _ -> (Qcompile.Decompose.to_basis single).Circ.ops
  in
  Circ.make ~name:c.Circ.name ~qubits:c.Circ.num_qubits ~cbits:0
    (List.concat_map spell c.Circ.ops)

let batch_jobs size seed =
  let family = 8 in
  (* A quarter of all pairs are S-mutants, at fixed positions: refuting can
     cost far more than proving, so a seeded choice would make the batch's
     cost depend on the seed.  Compile-verify pairs are never mutated:
     there the refutation's cost swings 100x with the random circuit. *)
  let of_pair positions label i (p : Pair.t) =
    let mutated = List.mem i positions in
    let p = if mutated then mutate_pair p else p in
    { j_label = (if mutated then label ^ "+s" else label)
    ; j_expected = not mutated
    ; a = p.Pair.static_circuit
    ; b = p.Pair.dynamic_circuit
    ; perm = Some p.Pair.dyn_to_static
    }
  in
  let sized default smoke i = match size with Default -> default i | Smoke -> smoke i in
  let bvs =
    List.init family (fun i ->
      let n = sized (fun i -> 24 + (4 * i)) (fun i -> 4 + i) i in
      of_pair [ 1; 4; 6 ] (Fmt.str "bv_%d" n) i (bv (stream seed (10 + i)) (n - 1)))
  in
  let qfts =
    List.init family (fun i ->
      let n = sized (fun i -> 8 + i) (fun i -> 3 + (i mod 3)) i in
      of_pair [ 1; 4; 6 ] (Fmt.str "qft_%d" n) i (Algorithms.Qft.make n))
  in
  let qpes =
    List.init family (fun i ->
      let bits = sized (fun i -> 6 + i) (fun i -> 3 + (i mod 2)) i in
      let theta = theta (stream seed (20 + i)) ~bits in
      of_pair [ 1; 4 ] (Fmt.str "qpe_%d" bits) i (Algorithms.Qpe.make ~theta ~bits))
  in
  let compiled =
    List.init family (fun i ->
      let qubits, gates = sized (fun i -> (5, 40 + (5 * i))) (fun _ -> (3, 10)) i in
      let c =
        printable
          (Algorithms.Random_circuit.unitary ~seed:(Random.State.bits (stream seed (30 + i)))
             ~qubits ~gates)
      in
      { j_label = Fmt.str "compile_%dq_%dg" qubits gates
      ; j_expected = true
      ; a = c
      ; b = (Qcompile.Optimize.run (Qcompile.Decompose.to_basis c)).Qcompile.Optimize.circuit
      ; perm = None
      })
  in
  bvs @ qfts @ qpes @ compiled

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The files and the manifest a user would hand to [qcec_cli batch]. *)
let write_batch dir ~seed jobs =
  if Sys.file_exists dir then remove_tree dir;
  Sys.mkdir dir 0o755;
  let entries =
    List.mapi
      (fun i j ->
        let file side = Fmt.str "job%02d_%s.qasm" i side in
        Circuit.Qasm_printer.to_file (Filename.concat dir (file "a")) j.a;
        Circuit.Qasm_printer.to_file (Filename.concat dir (file "b")) j.b;
        J.Obj
          ([ ("a", J.String (file "a")); ("b", J.String (file "b")); ("label", J.String j.j_label) ]
          @
          match j.perm with
          | None -> []
          | Some p -> [ ("perm", J.List (Array.to_list (Array.map (fun q -> J.Int q) p))) ]))
      jobs
  in
  let manifest = Filename.concat dir "manifest.json" in
  J.to_file manifest
    (J.Obj
       [ ("schema", J.String Engine.Manifest.schema)
       ; ("seed", J.Int seed)
       ; ("defaults", J.Obj [ ("scheme", J.String "auto") ])
       ; ("jobs", J.List entries)
       ]);
  manifest

(* Parse, lint and cost routing measured from outside, serially, on the
   same files the pool just read: a traced repetition only. *)
let batch_front_end tr (spec : Engine.Job.spec list) =
  let files =
    List.concat_map
      (fun (s : Engine.Job.spec) ->
        match s.Engine.Job.source with
        | Engine.Job.Files { file_a; file_b } -> [ file_a; file_b ]
        | Engine.Job.Circuits _ -> [])
      spec
  in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let parsed, parse_s =
    timed (fun () ->
      List.map
        (fun f ->
          Trace.span tr ~cat:"circuit" ("parse " ^ Filename.basename f) (fun () ->
            (f, Circuit.Qasm3_parser.parse_any_file_located f)))
        files)
  in
  let (), lint_s =
    timed (fun () ->
      List.iter
        (fun (file, (c, lines)) ->
          Trace.span tr ~cat:"analysis" ("lint " ^ Filename.basename file) (fun () ->
            ignore (Analysis.lint ~file ~lines c)))
        parsed)
  in
  let rec pairs = function
    | (_, (a, _)) :: (_, (b, _)) :: rest -> (a, b) :: pairs rest
    | _ -> []
  in
  let circuits = pairs parsed in
  let (), cost_s =
    timed (fun () ->
      List.iter
        (fun (a, b) ->
          Trace.span tr ~cat:"analysis" "Analysis.Cost route" (fun () ->
            ignore
              (Analysis.Classify.route_application (Analysis.Cost.profile a)
                 (Analysis.Cost.profile b))))
        circuits)
  in
  [ ("circuit.parse_s", parse_s)
  ; ("circuit.ops_parsed", sum (fun (_, (c, _)) -> float (Circ.total_ops c)) parsed)
  ; ("analysis.lint_s", lint_s)
  ; ("analysis.cost_s", cost_s)
  ]
  @ transform_layer tr (List.concat_map (fun (a, b) -> [ a; b ]) circuits)

let batch_run ~manifest ~jobs tr =
  let expected = Array.of_list (List.map (fun j -> j.j_expected) jobs) in
  let completions = ref [] in
  let t0 = now () in
  let m =
    match Engine.Manifest.load manifest with
    | Ok m -> m
    | Error msg -> failwith ("ledger batch manifest: " ^ msg)
  in
  let cfg =
    { Engine.Pool.default_config with
      Engine.Pool.workers = 2
    ; lint = true
    ; cache = None
      (* runs under the pool lock, so the list needs no lock of its own *)
    ; on_result = Some (fun r -> completions := (now (), r) :: !completions)
    }
  in
  let batch =
    Trace.span tr ~cat:"engine" "Engine.Pool.run" (fun () ->
      Engine.Pool.run cfg m.Engine.Manifest.jobs)
  in
  let wall = now () -. t0 in
  let completions = List.rev !completions in
  let checks =
    List.map
      (fun (t, (r : Engine.Job.result)) ->
        let verdict, columns =
          match r.Engine.Job.outcome with
          | Engine.Job.Verdict v ->
            ( (if v.Engine.Job.equivalent then Equivalent else Not_equivalent)
            , [ ("t_trans", v.Engine.Job.t_transform); ("t_ver", v.Engine.Job.t_check) ] )
          | Engine.Job.Failed { reason; message } ->
            (Failed (Engine.Job.failure_class_string reason ^ ": " ^ message), [])
        in
        { label = r.Engine.Job.label
        ; expected = expected.(r.Engine.Job.index)
        ; verdict
        ; latency = Some (t -. t0)
        ; columns
        })
      completions
  in
  let layers =
    match tr with
    | None -> []
    | Some trace ->
      (* one span per job on its worker's track: [completion - duration,
         completion] *)
      List.iter
        (fun (t, (r : Engine.Job.result)) ->
          let tid = 100 + r.Engine.Job.worker in
          Trace.track trace tid (Fmt.str "batch worker %d" r.Engine.Job.worker);
          Trace.add trace ~tid ~cat:"job" ~name:r.Engine.Job.label
            ~start:(t -. r.Engine.Job.duration) ~stop:t)
        completions;
      let waits =
        List.map (fun (t, (r : Engine.Job.result)) -> t -. t0 -. r.Engine.Job.duration) completions
      in
      let verdicts =
        List.filter_map
          (fun (_, (r : Engine.Job.result)) ->
            match r.Engine.Job.outcome with
            | Engine.Job.Verdict v -> Some v
            | Engine.Job.Failed _ -> None)
          completions
      in
      [ ("engine.queue_wait_p50_s", percentile 0.5 waits)
      ; ("engine.queue_wait_p90_s", percentile 0.9 waits)
      ; ("engine.service_s", sum (fun (_, (r : Engine.Job.result)) -> r.Engine.Job.duration) completions)
      ; ("engine.workers", float batch.Engine.Pool.workers)
      ; ("strategy.check_s", sum (fun v -> v.Engine.Job.t_check) verdicts)
      ; ("strategy.peak_nodes", fmax (fun v -> float v.Engine.Job.peak_nodes) verdicts)
      ]
      @ batch_front_end tr m.Engine.Manifest.jobs
  in
  { wall; checks; layers }

let batch =
  { name = "batch"
  ; digests =
      (fun size ~seed ->
        List.concat_map (fun j -> [ Circ.digest j.a; Circ.digest j.b ]) (batch_jobs size seed))
  ; prepare =
      (fun size ~seed ~workdir ->
        let jobs = batch_jobs size seed in
        let dir = Filename.concat workdir (Fmt.str "ledger-batch-%d" (Unix.getpid ())) in
        let manifest = write_batch dir ~seed jobs in
        { run = batch_run ~manifest ~jobs
        ; cleanup = (fun () -> if Sys.file_exists dir then remove_tree dir)
        })
  }

(* ------------------------------------------------------------------ *)
(* race: first-verdict-wins portfolio at width 2                       *)

type race_case =
  { r_label : string
  ; ra : Circ.t
  ; rb : Circ.t
  ; rperm : int array option
  }

let race_cases size seed =
  let bv_n, qft_n, qpe_bits, tb_bits, opt_qft, grover =
    match size with
    | Default -> (16, 7, 8, 7, 8, 5)
    | Smoke -> (4, 3, 3, 3, 3, 3)
  in
  let of_pair label (p : Pair.t) =
    { r_label = label; ra = p.Pair.static_circuit; rb = p.Pair.dynamic_circuit; rperm = Some p.Pair.dyn_to_static }
  in
  let optimized label c =
    let c = Circ.strip_measurements c in
    { r_label = label
    ; ra = c
    ; rb = (Qcompile.Optimize.run (Qcompile.Decompose.to_basis c)).Qcompile.Optimize.circuit
    ; rperm = None
    }
  in
  [ of_pair (Fmt.str "bv_%d" bv_n) (bv (stream seed 1) bv_n)
  ; of_pair (Fmt.str "qft_%d" qft_n) (Algorithms.Qft.make qft_n)
  ; of_pair (Fmt.str "qpe_%d" qpe_bits)
      (Algorithms.Qpe.make ~theta:(theta (stream seed 2) ~bits:qpe_bits) ~bits:qpe_bits)
  ; of_pair (Fmt.str "qpe_textbook_%d" tb_bits)
      (Algorithms.Qpe.make_textbook ~theta:(theta (stream seed 3) ~bits:tb_bits) ~bits:tb_bits)
  ; optimized (Fmt.str "qft_%d_optimized" opt_qft) (Algorithms.Qft.static opt_qft)
  ; optimized (Fmt.str "grover_%d_optimized" grover)
      (Algorithms.Grover.static
         ~marked:(Random.State.int (stream seed 4) (1 lsl grover))
         ~qubits:grover ())
  ]

let race_seed = 11

let simulative = function
  | Qcec.Strategy.Simulation _ | Qcec.Strategy.Random_stimuli _ -> true
  | Qcec.Strategy.Construction | Qcec.Strategy.Sequential | Qcec.Strategy.Proportional
  | Qcec.Strategy.Lookahead -> false

(* The most dynamic classification of the pair gates the field, as in the
   batch pool. *)
let pair_kind a b =
  let k c = (Analysis.classify c).Analysis.Classify.kind in
  let rank = function
    | Analysis.Classify.Unitary -> 0
    | Analysis.Classify.Measure_terminal -> 1
    | Analysis.Classify.Dynamic -> 2
  in
  if rank (k a) >= rank (k b) then k a else k b

let race_one tr c =
  let s = now () in
  let kind = Trace.span tr ~cat:"analysis" "Analysis.classify" (fun () -> pair_kind c.ra c.rb) in
  let s_cost = now () in
  let field =
    Trace.span tr ~cat:"analysis" "Analysis.Classify.compose_portfolio" (fun () ->
      Analysis.Classify.compose_portfolio ~width:2 ~shots:64 kind (Analysis.Cost.profile c.ra)
        (Analysis.Cost.profile c.rb))
    |> List.map Qcec.Strategy.of_candidate
  in
  let s_race = now () in
  let race =
    attempt (fun () ->
      Trace.span tr ~cat:"race" ("Verify.portfolio " ^ c.r_label) (fun () ->
        Qcec.Verify.portfolio
          ~candidates:(List.map (fun st -> (st, Dd.Registry.default)) field)
          ~seed:race_seed ?perm:c.rperm c.ra c.rb))
  in
  let stop = now () in
  (field, race, (s, s_cost, s_race, stop))

let race_run cases tr =
  let raced = List.map (fun c -> (c, race_one tr c)) cases in
  let wall = sum (fun (_, (_, _, (s, _, _, stop))) -> stop -. s) raced in
  (* every exact candidate solo, as the reference verdict and the
     fastest-exact baseline; simulative solos can take minutes *)
  let solos =
    List.map
      (fun (c, (field, _, _)) ->
        List.filter_map
          (fun strategy ->
            if simulative strategy then None
            else begin
              let s = now () in
              let r =
                attempt (fun () ->
                  Trace.span tr ~cat:"verify"
                    (Fmt.str "solo %s %s" (Qcec.Strategy.name strategy) c.r_label)
                    (fun () ->
                      Qcec.Verify.functional ~strategy ~seed:race_seed ?perm:c.rperm c.ra c.rb))
              in
              Some (strategy, r, now () -. s)
            end)
          field)
      raced
  in
  let race_checks =
    List.map
      (fun (c, (_, race, (s, _, _, stop))) ->
        { label = c.r_label
        ; expected = true
        ; verdict =
            (match race with
             | Ok r when not r.Qcec.Verify.winner_definitive ->
               Failed "race ended without a definitive verdict"
             | r -> verdict_of (Result.map (fun r -> r.Qcec.Verify.winner.Qcec.Verify.equivalent) r))
        ; latency = Some (stop -. s)
        ; columns =
            (match race with
             | Ok r ->
               [ ("t_trans", r.Qcec.Verify.winner.Qcec.Verify.t_transform)
               ; ("t_ver", r.Qcec.Verify.winner.Qcec.Verify.t_check)
               ]
             | Error _ -> [])
        })
      raced
  in
  let solo_checks =
    List.concat_map
      (fun (c, runs) ->
        List.map
          (fun (strategy, r, _) ->
            { label = Fmt.str "%s solo %s" c.r_label (Qcec.Strategy.name strategy)
            ; expected = true
            ; verdict =
                verdict_of
                  (Result.map (fun (r : Qcec.Verify.functional_result) -> r.equivalent) r)
            ; latency = None
            ; columns = []
            })
          runs)
      (List.combine cases solos)
  in
  let layers =
    match tr with
    | None -> []
    | Some trace ->
      let races = List.filter_map (fun (_, (_, r, t)) -> Option.map (fun r -> (r, t)) (Result.to_option r)) raced in
      (* one span per candidate on its own track, from the race start *)
      List.iter
        (fun ((r : Qcec.Verify.portfolio_result), (_, _, s_race, _)) ->
          List.iteri
            (fun i (cr : Qcec.Verify.candidate_report) ->
              let tid = 200 + i in
              Trace.track trace tid (Fmt.str "race candidate %d" i);
              Trace.add trace ~tid ~cat:"candidate"
                ~name:
                  (Fmt.str "%s (%a)" (Qcec.Strategy.name cr.Qcec.Verify.c_strategy)
                     Qcec.Verify.pp_candidate_outcome cr.Qcec.Verify.c_outcome)
                ~start:s_race ~stop:(s_race +. cr.Qcec.Verify.c_wall))
            r.Qcec.Verify.candidates)
        races;
      let winner_wall (r : Qcec.Verify.portfolio_result) =
        (List.nth r.Qcec.Verify.candidates r.Qcec.Verify.winner_index).Qcec.Verify.c_wall
      in
      let fastest runs = List.fold_left (fun acc (_, _, t) -> Float.min acc t) infinity runs in
      [ ("race.races", float (List.length races))
      ; ("race.t_wall_s", sum (fun (r, _) -> r.Qcec.Verify.t_wall) races)
      ; ("race.winner_s", sum (fun (r, _) -> winner_wall r) races)
      ; ("race.cancelled", sum (fun (r, _) -> float r.Qcec.Verify.races_cancelled) races)
      ; ( "race.definitive"
        , sum (fun (r, _) -> if r.Qcec.Verify.winner_definitive then 1.0 else 0.0) races )
      ; ("race.fastest_solo_s", sum fastest (List.filter (fun runs -> runs <> []) solos))
      ; ("analysis.lint_s", sum (fun (_, (_, _, (s, s_cost, _, _))) -> s_cost -. s) raced)
      ; ("analysis.cost_s", sum (fun (_, (_, _, (_, s_cost, s_race, _))) -> s_race -. s_cost) raced)
      ; ("strategy.check_s", sum (fun (r, _) -> r.Qcec.Verify.winner.Qcec.Verify.t_check) races)
      ; ( "strategy.peak_nodes"
        , fmax (fun (r, _) -> float r.Qcec.Verify.winner.Qcec.Verify.peak_nodes) races )
      ]
      @ transform_layer tr (List.concat_map (fun c -> [ c.ra; c.rb ]) cases)
  in
  { wall; checks = race_checks @ solo_checks; layers }

let race =
  { name = "race"
  ; digests =
      (fun size ~seed ->
        List.concat_map (fun c -> [ Circ.digest c.ra; Circ.digest c.rb ]) (race_cases size seed))
  ; prepare =
      (fun size ~seed ~workdir:_ ->
        let cases = race_cases size seed in
        { run = race_run cases; cleanup = ignore })
  }

let all = [ functional; extraction; batch; race ]
