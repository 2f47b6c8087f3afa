module M = Obs.Metrics

let grace = 0.25
let max_parked = max 1 (Domain.recommended_domain_count () - 1)

(* what a task left behind, published by its helper *)
type 'a outcome =
  { value : ('a, exn * Printexc.raw_backtrace) result
  ; metrics : M.snapshot
  ; spans : Obs.Span.entry list
  }

type 'a t =
  { t_lock : Mutex.t
  ; finished : Condition.t
  ; mutable outcome : 'a outcome option
  }

(* A helper blocks on its own pipe while parked: OCaml 5.1's [Condition]
   has no timed wait, and [Unix.select] on the read end gives one.  Each
   lending writes one byte and each task read consumes one. *)
type helper =
  { wake_r : Unix.file_descr
  ; wake_w : Unix.file_descr
  ; mutable task : unit -> unit -> unit
        (* runs the task and returns the step that publishes its outcome;
           set under [lock] when the helper is lent *)
  }

let lock = Mutex.create ()

(* most recently parked first, under [lock] *)
let idle : helper list ref = ref []

let parked () = Mutex.protect lock (fun () -> List.length !idle)

let rec wake h =
  match Unix.write_substring h.wake_w "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wake h

let rec read_wake h =
  match Unix.read h.wake_r (Bytes.create 1) 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_wake h

(* [true] once woken, [false] after [grace] seconds without a task (or if
   [select] cannot watch the descriptor, which retires the helper) *)
let rec woken h =
  match Unix.select [ h.wake_r ] [] [] grace with
  | [], _, _ -> false
  | _ ->
    read_wake h;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> woken h
  | exception Unix.Unix_error _ -> false

let close h =
  Unix.close h.wake_r;
  Unix.close h.wake_w

(* The helper parks (or, past the cap, retires) before it publishes the
   outcome, so a caller that spawns again as soon as [join] returns finds
   it parked. *)
let rec serve h =
  let publish = (Mutex.protect lock (fun () -> h.task)) () in
  let park =
    Mutex.protect lock (fun () ->
      List.length !idle < max_parked
      && begin
        idle := h :: !idle;
        true
      end)
  in
  publish ();
  if park then wait h else close h

and wait h =
  if woken h then serve h
  else if
    Mutex.protect lock (fun () ->
      List.memq h !idle
      && begin
        idle := List.filter (fun p -> p != h) !idle;
        true
      end)
  then close h
  else begin
    (* lent just as the grace ran out: its wake byte is on the way *)
    read_wake h;
    serve h
  end

let spawn f =
  let t = { t_lock = Mutex.create (); finished = Condition.create (); outcome = None } in
  let backtraces = Printexc.backtrace_status () in
  let task () =
    M.reset ();
    Obs.Span.reset ();
    Printexc.record_backtrace backtraces;
    let value =
      match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    let o = { value; metrics = M.snapshot (); spans = Obs.Span.report () } in
    fun () ->
      Mutex.protect t.t_lock (fun () -> t.outcome <- Some o);
      Condition.broadcast t.finished
  in
  let lent =
    Mutex.protect lock (fun () ->
      match !idle with
      | h :: rest ->
        idle := rest;
        h.task <- task;
        Some h
      | [] -> None)
  in
  (match lent with
   | Some h -> wake h
   | None ->
     let wake_r, wake_w = Unix.pipe ~cloexec:true () in
     let h = { wake_r; wake_w; task } in
     (match Domain.spawn (fun () -> serve h) with
      | _ -> ()
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close h;
        Printexc.raise_with_backtrace e bt));
  t

let join t =
  Mutex.lock t.t_lock;
  while Option.is_none t.outcome do
    Condition.wait t.finished t.t_lock
  done;
  let o = Option.get t.outcome in
  Mutex.unlock t.t_lock;
  M.absorb o.metrics;
  Obs.Span.absorb o.spans;
  match o.value with
  | Ok v -> (v, o.metrics)
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let fork_join ?(abort = ignore) tasks f =
  let lent = ref [] in
  match
    List.iter (fun task -> lent := spawn task :: !lent) tasks;
    f ()
  with
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    abort ();
    List.iter (fun t -> try ignore (join t) with _ -> ()) !lent;
    Printexc.raise_with_backtrace e bt
  | v ->
    let joined =
      List.rev_map
        (fun t ->
          match join t with r -> Ok r | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        !lent
    in
    ( v
    , List.map
        (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        joined )
