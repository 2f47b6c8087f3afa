(* Domain-local metric registries.  Metric *names* are registered globally
   (under a mutex), but every domain holds its own value slots in
   domain-local storage: increments from parallel workers never race.  A
   scope ([Scope.run], via [enter]/[leave] below) swaps in fresh slots for
   its duration, and its reading is folded into another domain's registry
   with [absorb] (or combined off-registry with [merge]). *)

type kind =
  | Counter
  | Gauge

(* A metric handle is just its registration record; values live in the
   per-domain slot arrays below. *)
type meta =
  { name : string
  ; ix : int
  ; kind : kind
  }

type counter = meta
type gauge = meta

(* The global-off fast path: every hot-path operation checks this single
   flag first, so disabled instrumentation costs one load + branch.  An
   [Atomic] so the flag is well-defined when read from worker domains (on
   x86/arm the load compiles to a plain move). *)
let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let lock = Mutex.create ()
let metas : (string, meta) Hashtbl.t = Hashtbl.create 64
let slot_count = ref 0

(* Per-domain value slots, grown on demand to the global slot count.  A
   fresh domain starts from all zeros: it observes only its own activity. *)
let slots_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let slots_for ix =
  let r = Domain.DLS.get slots_key in
  let a = !r in
  if ix < Array.length a then a
  else begin
    let target = Mutex.protect lock (fun () -> !slot_count) in
    let a' = Array.make (max target (ix + 1)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    r := a';
    a'
  end

let register kind name =
  Mutex.protect lock (fun () ->
    match Hashtbl.find_opt metas name with
    | Some m ->
      if m.kind <> kind then
        invalid_arg
          ("Obs.Metrics: " ^ name ^ " is already registered as a "
          ^ (match m.kind with Counter -> "counter" | Gauge -> "gauge"));
      m
    | None ->
      let m = { name; ix = !slot_count; kind } in
      incr slot_count;
      Hashtbl.add metas name m;
      m)

let counter name = register Counter name
let gauge name = register Gauge name

let incr c =
  if Atomic.get on then begin
    let a = slots_for c.ix in
    a.(c.ix) <- a.(c.ix) + 1
  end

let add c n =
  if Atomic.get on then begin
    let a = slots_for c.ix in
    a.(c.ix) <- a.(c.ix) + n
  end

let value c = (slots_for c.ix).(c.ix)

let observe g v =
  if Atomic.get on then begin
    let a = slots_for g.ix in
    if v > a.(g.ix) then a.(g.ix) <- v
  end

let peak g = (slots_for g.ix).(g.ix)

type snapshot = (string * int) list

let all_metas () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) metas [])

(* every registered metric's value in the slots [a], sorted by name *)
let read a =
  List.map (fun m -> (m.name, if m.ix < Array.length a then a.(m.ix) else 0)) (all_metas ())
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)

let snapshot () = read !(Domain.DLS.get slots_key)

let kind_of name =
  Mutex.protect lock (fun () ->
    Option.map (fun m -> m.kind) (Hashtbl.find_opt metas name))

let is_gauge name = kind_of name = Some Gauge

let diff ~before ~after =
  List.map
    (fun (name, v) ->
      if is_gauge name then (name, v)
      else begin
        let b = match List.assoc_opt name before with Some b -> b | None -> 0 in
        (name, v - b)
      end)
    after

let merge snaps =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun snap ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt tbl name with
          | None -> Hashtbl.add tbl name v
          | Some prev ->
            Hashtbl.replace tbl name (if is_gauge name then max prev v else prev + v))
        snap)
    snaps;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let absorb snap =
  (* a name no live registry knows has nothing to fold into *)
  let known =
    Mutex.protect lock (fun () ->
      List.filter_map
        (fun (name, v) -> Option.map (fun m -> (m, v)) (Hashtbl.find_opt metas name))
        snap)
  in
  List.iter
    (fun (m, v) ->
      let a = slots_for m.ix in
      a.(m.ix) <- (match m.kind with Counter -> a.(m.ix) + v | Gauge -> max a.(m.ix) v))
    known

let find s name = match List.assoc_opt name s with Some v -> v | None -> 0

let reset () =
  let a = !(Domain.DLS.get slots_key) in
  Array.fill a 0 (Array.length a) 0

(* A scope's slots: fresh zeros until [leave] reinstalls the enclosing
   ones and folds the scope's reading into them. *)
type frame = int array

let enter () =
  let r = Domain.DLS.get slots_key in
  let outer = !r in
  r := Array.make (Mutex.protect lock (fun () -> !slot_count)) 0;
  outer

let leave outer =
  let r = Domain.DLS.get slots_key in
  let inner = !r in
  r := outer;
  let reading = read inner in
  absorb reading;
  reading

let to_json s = Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) s)
