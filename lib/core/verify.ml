module Circ = Circuit.Circ

(* All reported durations use the monotonic clock: [Unix.gettimeofday] can
   jump backwards under NTP adjustment, which used to make t_trans/t_ver
   occasionally negative.  Span timing goes through the same source. *)
let now = Obs.Clock.now

exception Rejected of Analysis.Diagnostic.t
exception Perm_mismatch of { entries : int; qubits : int }

type functional_result =
  { equivalent : bool
  ; exactly_equal : bool
  ; strategy : Strategy.t
  ; t_transform : float
  ; t_check : float
  ; transformed_qubits : int
  ; peak_nodes : int
  ; cached : bool
  ; metrics : Obs.Metrics.snapshot
  }

type distribution_result =
  { distributions_equal : bool
  ; total_variation : float
  ; t_extract : float
  ; t_simulate : float
  ; dynamic_distribution : Distribution.t
  ; static_distribution : Distribution.t
  ; extraction_stats : Qsim.Extraction.stats
  ; metrics : Obs.Metrics.snapshot
  }

type approximate_result =
  { process_fidelity : float
  ; within : bool
  ; t_transform : float
  ; t_check : float
  }

(* Infer the wire correspondence from the measurements: a qubit of [g']
   measured into classical bit [b] must line up with the qubit of [g]
   measured into the same bit; unmeasured qubits are matched in ascending
   order.  This is how a checker can align a transformed dynamic circuit
   with its static counterpart without being told the permutation. *)
let measurement_alignment (g : Circ.t) (g' : Circ.t) =
  let n = g.Circ.num_qubits in
  if n <> g'.Circ.num_qubits then None
  else begin
    let mg = Circ.measurements g and mg' = Circ.measurements g' in
    let cbit_to_q = Hashtbl.create 16 in
    List.iter (fun (q, cb) -> Hashtbl.replace cbit_to_q cb q) mg;
    let perm = Array.make n (-1) in
    let used = Array.make n false in
    let ok = ref (List.length mg = List.length mg') in
    let assign q' q =
      if q < 0 || q >= n || q' < 0 || q' >= n || used.(q) || perm.(q') >= 0 then
        ok := false
      else begin
        perm.(q') <- q;
        used.(q) <- true
      end
    in
    List.iter
      (fun (q', cb) ->
        match Hashtbl.find_opt cbit_to_q cb with
        | Some q -> assign q' q
        | None -> ok := false)
      mg';
    if not !ok then None
    else begin
      (* unmeasured wires: next free target in ascending order *)
      let next = ref 0 in
      Array.iteri
        (fun q' target ->
          if target < 0 then begin
            while !next < n && used.(!next) do
              incr next
            done;
            if !next < n then begin
              perm.(q') <- !next;
              used.(!next) <- true
            end
            else ok := false
          end)
        perm;
      if !ok then Some perm else None
    end
  end

(* Pad the narrower circuit with idle wires so both act on the same
   register; the check then requires the extra wires to carry the exact
   identity, which is the natural reading of "the same functionality" for
   an implementation that simply ignores some inputs. *)
let equalize_widths g g' =
  let n = g.Circ.num_qubits and n' = g'.Circ.num_qubits in
  let pad c target =
    Circ.make ~name:c.Circ.name ~qubits:target ~cbits:c.Circ.num_cbits c.Circ.ops
  in
  if n < n' then (pad g n', g')
  else if n' < n then (g, pad g' n)
  else (g, g')

(* Bring both sides to unitary form on one register: transform dynamic
   inputs with the Section 4 scheme, pad the narrower one, then line [g']'s
   wires up with [g]'s — by [perm] if given, else, under [auto_align], by
   the correspondence the measurements imply. *)
let align ?perm ~auto_align g g' =
  let static_of c = if Circ.is_dynamic c then Transform.Dynamic.transform c else c in
  let g = static_of g in
  let g' = static_of g' in
  let g, g' = equalize_widths g g' in
  let perm =
    match perm with
    | Some p when Array.length p <> g'.Circ.num_qubits ->
      raise (Perm_mismatch { entries = Array.length p; qubits = g'.Circ.num_qubits })
    | Some _ as p -> p
    | None ->
      if auto_align && Circ.measurements g <> [] then measurement_alignment g g'
      else None
  in
  (g, match perm with None -> g' | Some perm -> Circ.remap g' ~perm)

(* The static pre-flight: classify both inputs and, under [`Reject],
   refuse dynamic ones with a located QA008 *before* any transformation or
   DD package construction.  This turns what used to surface mid-run as
   [Strategy.Non_unitary] into an up-front diagnostic. *)
let preflight ~on_dynamic g g' =
  match on_dynamic with
  | `Transform -> ()
  | `Reject ->
    List.iter
      (fun c ->
        let p = Analysis.classify c in
        match
          Analysis.Classify.scheme_rejection
            ~file:c.Circ.name ~scheme:Analysis.Classify.Unitary_scheme p
        with
        | Some d -> raise (Rejected d)
        | None -> ())
      [ g; g' ]

(* The verdict cache is keyed on both circuit digests plus everything else
   that can change the outcome: strategy (shot counts included via
   {!Strategy.name}), transform-vs-reject mode, any explicit permutation,
   the stimuli seed, and the weight-interning tolerance
   ({!Dd.Pkg.tolerance}). *)
let cache_key ~strategy ~perm ~on_dynamic ~seed ~digest_a ~digest_b =
  Cache_store.Key.make ~digest_a ~digest_b
    { Cache_store.Key.strategy = Strategy.name strategy
    ; transform = (match on_dynamic with `Transform -> true | `Reject -> false)
    ; perm
    ; seed
    ; tol = Dd.Pkg.tolerance
    }

let pp_functional ppf r =
  Fmt.pf ppf
    "@[<v>functional equivalence: %s%s@,strategy: %a@,t_trans = %.4fs, t_ver = %.4fs@,\
     qubits after transform: %d, peak DD nodes: %d@]"
    (if r.equivalent then "equivalent" else "NOT equivalent")
    (if r.equivalent && not r.exactly_equal then " (up to global phase)" else "")
    Strategy.pp r.strategy r.t_transform r.t_check r.transformed_qubits r.peak_nodes

let pp_distribution ppf r =
  Fmt.pf ppf
    "@[<v>distribution equivalence: %s (TVD = %.3g)@,t_extract = %.4fs, t_sim = %.4fs@,\
     branches: %d leaves, %d branch points, %d pruned@]"
    (if r.distributions_equal then "equivalent" else "NOT equivalent")
    r.total_variation r.t_extract r.t_simulate r.extraction_stats.Qsim.Extraction.leaves
    r.extraction_stats.Qsim.Extraction.branch_points
    r.extraction_stats.Qsim.Extraction.pruned

let functional ?(strategy = Strategy.default) ?perm ?(auto_align = true)
    ?(on_dynamic = `Transform) ?seed ?cache g g' =
  preflight ~on_dynamic g g';
  (* consult the verdict store before any transformation or DD package
     construction — a warm run allocates no DD state at all *)
  let m0 = Obs.Metrics.snapshot () in
  let hit, pending =
    match cache with
    | None -> (None, None)
    | Some store ->
      let digest_a = Circ.digest g and digest_b = Circ.digest g' in
      let key = cache_key ~strategy ~perm ~on_dynamic ~seed ~digest_a ~digest_b in
      (match Cache_store.Store.lookup store key with
       | Some e -> (Some e, None)
       | None -> (None, Some (store, key, digest_a, digest_b)))
  in
  match hit with
  | Some e ->
    { equivalent = e.Cache_store.Store.equivalent
    ; exactly_equal = e.Cache_store.Store.exactly_equal
    ; strategy
    ; t_transform = 0.0
    ; t_check = 0.0
    ; transformed_qubits = e.Cache_store.Store.transformed_qubits
    ; peak_nodes = e.Cache_store.Store.peak_nodes
    ; cached = true
    ; metrics = Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ())
    }
  | None ->
  let t0 = now () in
  let g, g' =
    Obs.Span.with_ "verify.functional.transform" (fun () ->
      align ?perm ~auto_align g g')
  in
  let t1 = now () in
  let p = Dd.Pkg.create () in
  let outcome =
    Obs.Span.with_ "verify.functional.check" (fun () ->
      Strategy.check ?seed p strategy g g')
  in
  let t2 = now () in
  let r =
    { equivalent = outcome.Strategy.equivalent_up_to_phase
    ; exactly_equal = outcome.Strategy.equivalent
    ; strategy
    ; t_transform = t1 -. t0
    ; t_check = t2 -. t1
    ; transformed_qubits = g'.Circ.num_qubits
    ; peak_nodes = outcome.Strategy.peak_nodes
    ; cached = false
    ; metrics = Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ())
    }
  in
  (match pending with
   | None -> ()
   | Some (store, key, digest_a, digest_b) ->
     Cache_store.Store.insert store
       { Cache_store.Store.key
       ; digest_a
       ; digest_b
       ; strategy = Strategy.name strategy
       ; equivalent = r.equivalent
       ; exactly_equal = r.exactly_equal
       ; transformed_qubits = r.transformed_qubits
       ; peak_nodes = r.peak_nodes
       ; t_transform = r.t_transform
       ; t_check = r.t_check
       });
  r

let distribution ?(eps = 1e-9) ?(cutoff = 1e-12) ?(domains = 1) dyn static =
  let m0 = Obs.Metrics.snapshot () in
  let t0 = now () in
  let extraction =
    Obs.Span.with_ "verify.distribution.extract" (fun () ->
      Qsim.Extraction.run ~cutoff ~domains dyn)
  in
  let t1 = now () in
  (* a dynamic reference is extracted as well; a static one is simulated
     once and marginalized onto its measured classical bits *)
  let static_dist, t2 =
    Obs.Span.with_ "verify.distribution.simulate" (fun () ->
      if Circ.is_dynamic static then begin
        let r = Qsim.Extraction.run ~cutoff ~domains static in
        (r.Qsim.Extraction.distribution, now ())
      end
      else begin
        let p = Dd.Pkg.create () in
        let final = Qsim.Dd_sim.simulate p static in
        let t2 = now () in
        ( Qsim.Dd_sim.measured_distribution p final ~n:static.Circ.num_qubits
            ~num_cbits:static.Circ.num_cbits ~measures:(Circ.measurements static)
            ~cutoff ()
        , t2 )
      end)
  in
  let tv = Distribution.total_variation extraction.Qsim.Extraction.distribution static_dist in
  { distributions_equal = tv <= eps
  ; total_variation = tv
  ; t_extract = t1 -. t0
  ; t_simulate = t2 -. t1
  ; dynamic_distribution = extraction.Qsim.Extraction.distribution
  ; static_distribution = static_dist
  ; extraction_stats = extraction.Qsim.Extraction.stats
  ; metrics = Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ())
  }

let approximate ?(threshold = 1.0 -. 1e-9) ?perm ?(auto_align = true) g g' =
  let t0 = now () in
  let g, g' = align ?perm ~auto_align g g' in
  let t1 = now () in
  let p = Dd.Pkg.create () in
  let fidelity =
    Obs.Span.with_ "verify.approximate.check" (fun () ->
      (* [u] stays rooted while [u'] is built (auto-GC safepoints) *)
      Dd.Pkg.with_root_m p
        (Qsim.Dd_sim.build_unitary p (Circ.strip_measurements g))
        (fun ru ->
          let u' = Qsim.Dd_sim.build_unitary p (Circ.strip_measurements g') in
          Dd.Mat.process_fidelity p (Dd.Pkg.mroot_edge ru) u' ~n:g.Circ.num_qubits))
  in
  let t2 = now () in
  { process_fidelity = fidelity
  ; within = fidelity >= threshold
  ; t_transform = t1 -. t0
  ; t_check = t2 -. t1
  }

(* ---------------------------------------------------------------- *)
(* Portfolio racing: first definitive verdict wins                  *)

type candidate_outcome =
  [ `Won
  | `Finished
  | `Cancelled
  | `Error of string
  ]

type candidate_report =
  { c_strategy : Strategy.t
  ; c_seed : int option
  ; c_outcome : candidate_outcome
  ; c_wall : float
  ; c_metrics : Obs.Metrics.snapshot
  }

type portfolio_result =
  { winner : functional_result
  ; winner_index : int
  ; winner_strategy : Strategy.t
  ; winner_definitive : bool
  ; candidates : candidate_report list
  ; races_cancelled : int
  ; t_wall : float
  }

let m_races = Obs.Metrics.counter "portfolio.races"
let m_port_cancelled = Obs.Metrics.counter "portfolio.cancelled"

(* Raised inside a losing candidate's safepoint hook the moment another
   candidate has published a verdict: the loser unwinds mid-check and its
   package is dropped with it. *)
exception Lost

let pp_candidate_outcome ppf = function
  | `Won -> Fmt.string ppf "won"
  | `Finished -> Fmt.string ppf "finished (lost)"
  | `Cancelled -> Fmt.string ppf "cancelled"
  | `Error msg -> Fmt.pf ppf "error: %s" msg

(* A simulative candidate's 'all shots agree' is probabilistic, not
   definitive: state fidelity is |<a|b>|^2, so classical basis stimuli
   are deterministically blind to phase-only/diagonal discrepancies, and
   even quantum stimuli only refute with high probability.  Its
   'not equivalent', by contrast, exhibits a distinguishing stimulus. *)
let simulative = function
  | Strategy.Simulation _ | Strategy.Random_stimuli _ -> true
  | Strategy.Construction | Strategy.Sequential | Strategy.Proportional
  | Strategy.Lookahead -> false

(* Candidate [i]'s seed.  NOT [seed + i]: the manifest already derives
   sibling-job seeds as [seed + index], so a linear rule one level down
   would hand job [j]'s candidate 1 the same RNG key as job [j+1]'s
   candidate 0, correlating stimuli streams across a batch.  Mixing the
   index through a splitmix-style finalizer keeps candidate streams
   disjoint from every sibling job's, and still deterministic. *)
let candidate_seed ~seed ~candidate =
  let h = seed + ((candidate + 1) * 0x2545F4914F6CDD1D) in
  let h = h lxor (h lsr 30) in
  let h = h * 0x119DE1F3 in
  let h = h lxor (h lsr 27) in
  h land max_int

let portfolio ~candidates ?perm ?auto_align ?on_dynamic ?seed ?cache ?safepoint g
    g' =
  if candidates = [] then invalid_arg "Verify.portfolio: no candidates";
  let t0 = now () in
  (* -1 = undecided; the first candidate whose compare-and-set lands owns
     the race.  Every other candidate observes it at its next safepoint. *)
  let winner = Atomic.make (-1) in
  let run_candidate i (strategy, package) =
    let seed = Option.map (fun s -> candidate_seed ~seed:s ~candidate:i) seed in
    let r, wall =
      if package <> Dd.Registry.default then
        ( Error
            (Invalid_argument
               (Fmt.str "Verify.portfolio: unknown DD backend %S" package))
        , 0.0 )
      else begin
        let cname = Strategy.name strategy in
        (* the hook store is domain-local, so installing it here cannot
           disturb a sibling candidate *)
        Dd.Pkg.set_safepoint_hook
          (Some
             (fun p ->
               if Atomic.get winner >= 0 then raise Lost;
               match safepoint with
               | None -> ()
               | Some f -> f ~candidate:cname ~live_nodes:(Dd.Pkg.live_nodes p)));
        Fun.protect
          ~finally:(fun () -> Dd.Pkg.set_safepoint_hook None)
          (fun () ->
            let t = now () in
            let r =
              match
                functional ~strategy ?perm ?auto_align ?on_dynamic ?seed ?cache
                  g g'
              with
              | r -> Ok r
              | exception e -> Error e
            in
            (r, now () -. t))
      end
    in
    (* publish before returning, so the others unwind at their next
       safepoint instead of running to the end.  Only definitive
       verdicts claim the race — a simulative all-shots-pass is
       probabilistic, so it must not cancel the exact deciders (it may
       still serve as a flagged fallback if nobody else finishes). *)
    (match r with
     | Ok fr when not (simulative strategy && fr.equivalent) ->
       ignore (Atomic.compare_and_set winner (-1) i)
     | Ok _ | Error _ -> ());
    (r, seed, wall)
  in
  (* Candidate 0 runs on the calling domain and the others on helper
     domains, so the caller waits only once its own candidate is done.  A
     helper's reading holds exactly its candidate's work and is folded into
     the caller at join, so per-job metric diffs taken by callers (the
     batch pool) account for the whole race; candidate 0's work is already
     in the caller's registries.  If a spawn fails partway (domain
     exhaustion under a racing batch pool) or the caller's own candidate
     raises, [max_int] in the winner cell makes the running candidates
     unwind at their next safepoint before the exception propagates. *)
  let first, others =
    Par.Helper.fork_join
      ~abort:(fun () -> ignore (Atomic.compare_and_set winner (-1) max_int))
      (List.mapi (fun i c () -> run_candidate (i + 1) c) (List.tl candidates))
      (fun () ->
        let m0 = Obs.Metrics.snapshot () in
        let r = run_candidate 0 (List.hd candidates) in
        (r, Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ())))
  in
  let joined = first :: others in
  let t_wall = now () -. t0 in
  let decided = Atomic.get winner in
  let winner_index =
    if decided >= 0 then Some decided
    else begin
      (* no definitive verdict was published.  A simulative candidate whose
         shots all agreed is still a usable — probabilistic — 'equivalent'
         (every [Ok] here is one: an exact [Ok] or a simulative
         counterexample would have claimed the race); surface the first
         such finisher, flagged via [winner_definitive = false]. *)
      let rec first_ok i = function
        | [] -> None
        | ((Ok _, _, _), _) :: _ -> Some i
        | _ :: rest -> first_ok (i + 1) rest
      in
      first_ok 0 joined
    end
  in
  let reports =
    let idx = ref (-1) in
    List.map2
      (fun (strategy, _) ((r, seed, wall), m) ->
        incr idx;
        let outcome =
          match r with
          | Ok _ when Some !idx = winner_index -> `Won
          | Ok _ -> `Finished
          | Error Lost -> `Cancelled
          | Error e -> `Error (Printexc.to_string e)
        in
        { c_strategy = strategy
        ; c_seed = seed
        ; c_outcome = outcome
        ; c_wall = wall
        ; c_metrics = m
        })
      candidates joined
  in
  let races_cancelled =
    List.length (List.filter (fun c -> c.c_outcome = `Cancelled) reports)
  in
  Obs.Metrics.incr m_races;
  Obs.Metrics.add m_port_cancelled races_cancelled;
  match winner_index with
  | None ->
    (* nobody finished: every candidate failed on its own terms (timeout,
       node limit, rejection...).  Re-raise the first failure so callers
       classify the race exactly like a solo run of their lead pick. *)
    (match
       List.find_map
         (fun ((r, _, _), _) ->
           match r with Error e when e <> Lost -> Some e | _ -> None)
         joined
     with
     | Some e -> raise e
     | None -> invalid_arg "Verify.portfolio: race decided with no verdict")
  | Some w ->
    let winner_result =
      match List.nth joined w with
      | (Ok r, _, _), _ -> r
      | _ -> assert false
    in
    { winner = winner_result
    ; winner_index = w
    ; winner_strategy = fst (List.nth candidates w)
    ; winner_definitive = decided >= 0
    ; candidates = reports
    ; races_cancelled
    ; t_wall
    }
