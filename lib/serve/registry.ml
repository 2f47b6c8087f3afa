module Json = Qcec_json

type state =
  | Queued
  | Running
  | Done of Engine.Job.result

type job =
  { id : string
  ; label : string
  ; submitted : float
  ; control : Engine.Pool.control
  ; mutable state : state
  ; mutable events : (int * string * Json.t) list (* newest first *)
  ; mutable seq : int
  }

type t =
  { lock : Mutex.t
  ; jobs : (string, job) Hashtbl.t
  ; order : string Queue.t (* submission order, for listing *)
  ; mutable counter : int
  }

let create () =
  { lock = Mutex.create (); jobs = Hashtbl.create 64; order = Queue.create (); counter = 0 }

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"

let add t ~label ~control =
  Mutex.protect t.lock (fun () ->
    t.counter <- t.counter + 1;
    let id = Printf.sprintf "job-%06d" t.counter in
    let j =
      { id; label; submitted = Unix.gettimeofday (); control; state = Queued; events = []; seq = 0 }
    in
    Hashtbl.replace t.jobs id j;
    Queue.add id t.order;
    j)

let lookup t id = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.jobs id)

let emit t j ~event data =
  Mutex.protect t.lock (fun () ->
    j.seq <- j.seq + 1;
    j.events <- (j.seq, event, data) :: j.events)

let set_state t j state = Mutex.protect t.lock (fun () -> j.state <- state)

let state t j = Mutex.protect t.lock (fun () -> j.state)

let events_after t j ~seq =
  Mutex.protect t.lock (fun () ->
    List.fold_left
      (fun acc ((s, _, _) as e) -> if s > seq then e :: acc else acc)
      [] j.events)

let fold t f init =
  Mutex.protect t.lock (fun () ->
    Queue.fold
      (fun acc id ->
        match Hashtbl.find_opt t.jobs id with
        | Some j -> f acc j
        | None -> acc)
      init t.order)

let counts t =
  fold t
    (fun (q, r, d) j ->
      match j.state with
      | Queued -> (q + 1, r, d)
      | Running -> (q, r + 1, d)
      | Done _ -> (q, r, d + 1))
    (0, 0, 0)
