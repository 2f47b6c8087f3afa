module M = Obs.Metrics

(* A compute cache: a plain table, so storing a binding is one
   [Hashtbl.replace].  Entries stay until the package empties every cache
   at a sweep ([Pkg.checkpoint], [Pkg.compact]). *)

type ('k, 'v) t =
  { tbl : ('k, 'v) Hashtbl.t
  ; m_hits : M.counter
  ; m_misses : M.counter
  ; g_peak : M.gauge
  }

let create ?(prefix = "dd.cache.") name =
  { tbl = Hashtbl.create 1024
  ; m_hits = M.counter (prefix ^ name ^ ".hits")
  ; m_misses = M.counter (prefix ^ name ^ ".misses")
  ; g_peak = M.gauge (prefix ^ name ^ ".peak")
  }

let length t = Hashtbl.length t.tbl

let find t key =
  let found = Hashtbl.find_opt t.tbl key in
  M.incr (if Option.is_some found then t.m_hits else t.m_misses);
  found

let add t key v =
  Hashtbl.replace t.tbl key v;
  M.observe t.g_peak (Hashtbl.length t.tbl)

let clear t = Hashtbl.reset t.tbl
