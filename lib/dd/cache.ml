module M = Obs.Metrics

(* A compute cache.  Unbounded (the default) it is a plain table: storing a
   binding is one [Hashtbl.replace] and no eviction state is kept.

   Bounded, it uses second-chance (clock) eviction.  Entries carry a
   reference bit that is set on every hit.  When the cache is full,
   candidates are popped from a FIFO of insertion order: an entry whose bit
   is set gets a second chance (bit cleared, re-queued), the first entry
   found with a clear bit is evicted.  One full rotation clears every bit,
   so an eviction scan terminates after at most 2 * length steps and in
   practice after one or two.

   The queue holds exactly the table's keys (entries leave it only by being
   evicted or by [clear]), so no stale-entry bookkeeping is needed.  The
   reference bit is shared between the queue and the table entry: replacing
   a key's value keeps its queue position and bit. *)

type ('k, 'v) store =
  | Disabled
  | Unbounded of ('k, 'v) Hashtbl.t
  | Bounded of
      { tbl : ('k, 'v * bool ref) Hashtbl.t
      ; queue : ('k * bool ref) Queue.t
      }

type ('k, 'v) t =
  { store : ('k, 'v) store
  ; capacity : int (* negative: unbounded; 0: disabled (never stores) *)
  ; m_hits : M.counter
  ; m_misses : M.counter
  ; m_evictions : M.counter
  ; g_peak : M.gauge
  }

let create ?(capacity = -1) ?(prefix = "dd.cache.") name =
  let store =
    if capacity < 0 then Unbounded (Hashtbl.create 1024)
    else if capacity = 0 then Disabled
    else
      Bounded { tbl = Hashtbl.create (max 16 (min capacity 1024)); queue = Queue.create () }
  in
  { store
  ; capacity
  ; m_hits = M.counter (prefix ^ name ^ ".hits")
  ; m_misses = M.counter (prefix ^ name ^ ".misses")
  ; m_evictions = M.counter (prefix ^ name ^ ".evictions")
  ; g_peak = M.gauge (prefix ^ name ^ ".peak")
  }

let capacity t = t.capacity

let length t =
  match t.store with
  | Disabled -> 0
  | Unbounded tbl -> Hashtbl.length tbl
  | Bounded b -> Hashtbl.length b.tbl

let find t key =
  let found =
    match t.store with
    | Disabled -> None
    | Unbounded tbl -> Hashtbl.find_opt tbl key
    | Bounded b ->
      (match Hashtbl.find_opt b.tbl key with
       | Some (v, bit) ->
         bit := true;
         Some v
       | None -> None)
  in
  M.incr (if Option.is_some found then t.m_hits else t.m_misses);
  found

let evict_one t tbl queue =
  let rec scan () =
    match Queue.take_opt queue with
    | None -> ()
    | Some ((key, bit) as entry) ->
      if !bit then begin
        bit := false;
        Queue.add entry queue;
        scan ()
      end
      else begin
        Hashtbl.remove tbl key;
        M.incr t.m_evictions
      end
  in
  scan ()

let add t key v =
  match t.store with
  | Disabled -> ()
  | Unbounded tbl ->
    Hashtbl.replace tbl key v;
    M.observe t.g_peak (Hashtbl.length tbl)
  | Bounded { tbl; queue } ->
    (match Hashtbl.find_opt tbl key with
     | Some (_, bit) ->
       (* a re-computed key replaces the old binding instead of shadowing
          it (Hashtbl.add would accumulate duplicates) *)
       bit := true;
       Hashtbl.replace tbl key (v, bit)
     | None ->
       if Hashtbl.length tbl >= t.capacity then evict_one t tbl queue;
       let bit = ref false in
       Hashtbl.replace tbl key (v, bit);
       Queue.add (key, bit) queue;
       M.observe t.g_peak (Hashtbl.length tbl))

let clear t =
  match t.store with
  | Disabled -> ()
  | Unbounded tbl -> Hashtbl.reset tbl
  | Bounded b ->
    Hashtbl.reset b.tbl;
    Queue.clear b.queue
