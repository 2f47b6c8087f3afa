type t =
  { domains : int
  ; lock : Mutex.t
  ; changed : Condition.t (* a task ended, or was left in the bag *)
  ; waiting : (unit -> unit) Queue.t
  ; mutable lent : int (* helpers serving this bag now *)
  ; mutable helpers : unit Helper.t list
  ; mutable failure : (exn * Printexc.raw_backtrace) option
  }

let domains t = t.domains

(* [fail] and [leave] run under [t.lock] *)
let fail t e bt =
  if Option.is_none t.failure then t.failure <- Some (e, bt);
  Queue.clear t.waiting

let leave t task =
  Queue.push task t.waiting;
  Condition.broadcast t.changed

let perform t task =
  match task () with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.protect t.lock (fun () -> fail t e bt)

(* A helper's share: its task, then whatever waits when that ends. *)
let rec serve t task =
  perform t task;
  let next =
    Mutex.protect t.lock (fun () ->
      Condition.broadcast t.changed;
      match Queue.take_opt t.waiting with
      | Some _ as next -> next
      | None ->
        t.lent <- t.lent - 1;
        None)
  in
  Option.iter (serve t) next

let lend t task =
  let start =
    Mutex.protect t.lock (fun () ->
      if Option.is_some t.failure then false
      else if t.lent < t.domains - 1 then begin
        t.lent <- t.lent + 1;
        true
      end
      else begin
        leave t task;
        false
      end)
  in
  if start then
    match Helper.spawn (fun () -> serve t task) with
    | h -> Mutex.protect t.lock (fun () -> t.helpers <- h :: t.helpers)
    | exception _ ->
      Mutex.protect t.lock (fun () ->
        t.lent <- t.lent - 1;
        leave t task)

let rec help t ~until =
  let next =
    Mutex.protect t.lock (fun () ->
      let rec next () =
        match t.failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None when until () -> None
        | None ->
          (match Queue.take_opt t.waiting with
           | Some _ as next -> next
           | None ->
             Condition.wait t.changed t.lock;
             next ())
      in
      next ())
  in
  Option.iter
    (fun task ->
      perform t task;
      help t ~until)
    next

let run ~domains f =
  if domains < 1 then invalid_arg (Printf.sprintf "Par.Bag.run: %d domains" domains);
  let t =
    { domains
    ; lock = Mutex.create ()
    ; changed = Condition.create ()
    ; waiting = Queue.create ()
    ; lent = 0
    ; helpers = []
    ; failure = None
    }
  in
  (* every lend happens while its lender's task runs, so once none runs
     every helper is in [t.helpers] *)
  let helpers () = List.rev t.helpers in
  match
    let v = f t in
    help t ~until:(fun () -> Queue.is_empty t.waiting && t.lent = 0);
    v
  with
  | v ->
    List.iter Helper.join (helpers ());
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.protect t.lock (fun () ->
      fail t e bt;
      while t.lent > 0 do
        Condition.wait t.changed t.lock
      done);
    List.iter (fun h -> try Helper.join h with _ -> ()) (helpers ());
    Printexc.raise_with_backtrace e bt
