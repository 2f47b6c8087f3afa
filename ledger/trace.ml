(* Chrome trace-event recorder for the traced repetition.

   Spans are recorded by the benchmark around its own calls into each
   layer, or synthesized afterwards from timings the layer reports (batch
   jobs, race candidates).  Everything stays in memory and is serialized
   once, through lib/json, as a document Perfetto and chrome://tracing
   open directly. *)

module J = Qcec_json

type event =
  { name : string
  ; cat : string
  ; tid : int
  ; start : float  (** seconds, {!Obs.Clock.now} *)
  ; stop : float
  }

type t =
  { mutable events : event list
  ; mutable tracks : (int * string) list
  }

let create () = { events = []; tracks = [ (0, "ledger") ] }

let track t tid name =
  if not (List.mem_assoc tid t.tracks) then t.tracks <- (tid, name) :: t.tracks

let add t ~tid ~cat ~name ~start ~stop =
  t.events <- { name; cat; tid; start; stop } :: t.events

(* [span tr ~cat name f] times [f ()] on the main track; without a
   recorder it is just [f ()]. *)
let span tr ~cat name f =
  match tr with
  | None -> f ()
  | Some t ->
    let start = Obs.Clock.now () in
    Fun.protect
      ~finally:(fun () -> add t ~tid:0 ~cat ~name ~start ~stop:(Obs.Clock.now ()))
      f

(* The trace-event objects of one recorder, as process [pid] named
   [process]; timestamps are microseconds since [origin]. *)
let events_json t ~pid ~process ~origin =
  let us s = J.Float ((s -. origin) *. 1e6) in
  let meta kind tid name =
    J.Obj
      [ ("name", J.String kind)
      ; ("ph", J.String "M")
      ; ("pid", J.Int pid)
      ; ("tid", J.Int tid)
      ; ("args", J.Obj [ ("name", J.String name) ])
      ]
  in
  (meta "process_name" 0 process
   :: List.rev_map (fun (tid, name) -> meta "thread_name" tid name) t.tracks)
  @ List.rev_map
      (fun e ->
        J.Obj
          [ ("name", J.String e.name)
          ; ("cat", J.String e.cat)
          ; ("ph", J.String "X")
          ; ("ts", us e.start)
          ; ("dur", J.Float ((e.stop -. e.start) *. 1e6))
          ; ("pid", J.Int pid)
          ; ("tid", J.Int e.tid)
          ])
      t.events

let origin t =
  List.fold_left (fun acc e -> Float.min acc e.start) infinity t.events

let document events = J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ]
