(* Helper-domain tests: races, batches, the daemon's workers and parallel
   extraction borrow the same parked helper, a helper idle past the grace
   retires, at most [max_parked] helpers stay parked, a task's exception
   reaches [join] with its backtrace, and a cancelled race candidate
   leaves no safepoint hook behind on its helper. *)

module Helper = Par.Helper
module Pair = Algorithms.Pair
module Verify = Qcec.Verify

let self () = (Domain.self () :> int)

(* A width-2 race of QFT-5 against itself.  Candidate 0, on the calling
   domain, waits at its safepoints until candidate 1 has reported from
   one of its own, so every race tells which domain candidate 1 ran on.
   With [slow_second], candidate 1 sleeps at each safepoint, so it is
   still running when candidate 0 wins. *)
let race ?(slow_second = false) () =
  let c = (Algorithms.Qft.make 5).Pair.static_circuit in
  let second = Qcec.Strategy.name Qcec.Strategy.Proportional in
  let seen = Atomic.make None in
  let r =
    Verify.portfolio
      ~candidates:
        [ (Qcec.Strategy.Sequential, "classic"); (Qcec.Strategy.Proportional, "classic") ]
      ~seed:1
      ~safepoint:(fun ~candidate ~live_nodes:_ ->
        if candidate = second then begin
          Atomic.set seen (Some (self ()));
          if slow_second then Unix.sleepf 0.002
        end
        else begin
          let give_up = Unix.gettimeofday () +. 5.0 in
          while Atomic.get seen = None && Unix.gettimeofday () < give_up do
            Unix.sleepf 0.0005
          done
        end)
      c c
  in
  Alcotest.(check bool) "the race verdict is correct" true
    r.Verify.winner.Verify.equivalent;
  match Atomic.get seen with
  | Some d -> (r, d)
  | None -> Alcotest.fail "candidate 1 never reached a safepoint"

let candidate_1_domain () = snd (race ())

let test_races_reuse_one_helper () =
  let domains = List.init 50 (fun _ -> candidate_1_domain ()) in
  Alcotest.(check int) "50 races run candidate 1 on one domain" 1
    (List.length (List.sort_uniq compare domains));
  Alcotest.(check bool) "that domain is not the caller" true (List.hd domains <> self ())

(* [Pool.run]'s helper runs worker 0.  Four slower jobs lead the batch,
   so the helper wakes while the caller is still busy and takes some. *)
let test_pool_then_race () =
  let specs =
    List.mapi
      (fun index (p : Pair.t) ->
        Engine.Job.circuits ~perm:p.Pair.dyn_to_static ~index p.Pair.static_circuit
          p.Pair.dynamic_circuit)
      (List.init 4 (fun _ -> Algorithms.Qft.make 32)
      @ List.init 2 (fun seed -> Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed 4)))
  in
  let seen = ref [] in
  ignore
    (Engine.Pool.run
       { Engine.Pool.default_config with
         Engine.Pool.workers = 2
       ; on_result =
           Some
             (fun r -> if r.Engine.Job.worker = 0 then seen := self () :: !seen)
       }
       specs);
  match List.sort_uniq compare !seen with
  | [ helper ] ->
    Alcotest.(check int) "the next race borrows the batch's helper" helper
      (candidate_1_domain ())
  | ds -> Alcotest.failf "worker 0 ran on %d domains" (List.length ds)

(* [Pool.create]'s worker loops are helper tasks: the daemon's worker
   runs on a helper domain, and once [shutdown] has joined it the next
   parallel call borrows that domain. *)
let test_daemon_worker_is_a_helper () =
  let pool =
    Engine.Pool.create { Engine.Pool.default_config with Engine.Pool.workers = 1 }
  in
  let p = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:3 4) in
  let spec =
    Engine.Job.circuits ~perm:p.Pair.dyn_to_static ~index:0 p.Pair.static_circuit
      p.Pair.dynamic_circuit
  in
  let ran_on = Atomic.make (-1) in
  (match Engine.Pool.submit pool ~on_done:(fun _ -> Atomic.set ran_on (self ())) spec with
   | Ok () -> ()
   | Error `Stopped -> Alcotest.fail "a fresh pool refused a job");
  Engine.Pool.shutdown pool;
  let d = Atomic.get ran_on in
  Alcotest.(check bool) "the worker ran on another domain" true (d >= 0 && d <> self ());
  Alcotest.(check int) "the next parallel call borrows it" d
    (Helper.join (Helper.spawn self))

let test_idle_helper_retires () =
  let d = candidate_1_domain () in
  let parked_at = Unix.gettimeofday () in
  Alcotest.(check bool) "the helper parks after the race" true (Helper.parked () >= 1);
  let give_up = parked_at +. 10.0 in
  while Helper.parked () > 0 && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.01
  done;
  let idle = Unix.gettimeofday () -. parked_at in
  Alcotest.(check int) "every parked helper retires" 0 (Helper.parked ());
  Alcotest.(check bool)
    (Fmt.str "not before the grace (%.3f s idle)" idle)
    true
    (idle >= Helper.grace -. 0.05);
  Alcotest.(check bool) "the next race spawns a new helper" true
    (candidate_1_domain () <> d)

(* Both outcomes of QPE-3's first two measurements survive, so four
   domains split its walk into four tasks: the caller runs one and lends
   three.  On a 2-vCPU host only one helper may stay parked. *)
let test_extraction_caps_parked () =
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let seq = Qsim.Extraction.run ~domains:1 dyn in
  let par = Qsim.Extraction.run ~domains:4 dyn in
  Util.check_distributions "4 domains extract the sequential distribution"
    seq.Qsim.Extraction.distribution par.Qsim.Extraction.distribution;
  Alcotest.(check int) "the cap leaves one vCPU to the caller"
    (max 1 (Domain.recommended_domain_count () - 1))
    Helper.max_parked;
  let parked = Helper.parked () in
  Alcotest.(check bool)
    (Fmt.str "%d parked, at most %d" parked Helper.max_parked)
    true
    (parked >= 1 && parked <= Helper.max_parked)

exception Boom

let[@inline never] boom () = raise Boom

let test_exception_reaches_join () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace recording)
    (fun () ->
      let raised_on = Atomic.make (-1) in
      let t =
        Helper.spawn (fun () ->
          Atomic.set raised_on (self ());
          boom ())
      in
      (match Helper.join t with
       | _ -> Alcotest.fail "join returned a value"
       | exception Boom ->
         let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
         Alcotest.(check bool)
           (Fmt.str "the backtrace names the raise:\n%s" bt)
           true
           (Util.contains ~sub:"test_par.ml" bt));
      let d = Helper.join (Helper.spawn self) in
      Alcotest.(check int) "the same helper serves the next task" (Atomic.get raised_on) d)

(* A cancelled candidate unwinds through its safepoint hook; the hook is
   domain-local, so a stale one would fire (and raise [Lost], the race
   being decided) at the next task's first checkpoint on that helper. *)
let test_cancelled_candidate_leaves_no_hook () =
  let r, d = race ~slow_second:true () in
  (match (List.nth r.Verify.candidates 1).Verify.c_outcome with
   | `Cancelled -> ()
   | o -> Alcotest.failf "candidate 1: expected `Cancelled, got %a" Verify.pp_candidate_outcome o);
  let next =
    Helper.join
      (Helper.spawn (fun () ->
         let p = Dd.Pkg.create () in
         Dd.Pkg.checkpoint p;
         self ()))
  in
  Alcotest.(check int) "the next task runs on that helper" d next

let suite =
  [ Alcotest.test_case "50 races run candidate 1 on one helper" `Quick
      test_races_reuse_one_helper
  ; Alcotest.test_case "a race borrows Pool.run's helper" `Quick test_pool_then_race
  ; Alcotest.test_case "a helper idle past the grace retires" `Quick
      test_idle_helper_retires
  ; Alcotest.test_case "4-domain extraction parks at most max_parked" `Quick
      test_extraction_caps_parked
  ; Alcotest.test_case "a task's exception reaches join" `Quick
      test_exception_reaches_join
  ; Alcotest.test_case "a cancelled candidate leaves no safepoint hook" `Quick
      test_cancelled_candidate_leaves_no_hook
  ; Alcotest.test_case "the daemon's worker borrows a helper" `Quick
      test_daemon_worker_is_a_helper
  ]
