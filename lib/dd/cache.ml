module M = Obs.Metrics

(* A compute cache: an unbounded chained table whose keys are up to four
   ints stored in the entry itself, so a probe allocates no key and
   hashes by integer mixing.  Entries stay until the package empties
   every cache at a sweep ([Pkg.checkpoint], [Pkg.compact]), which
   clears the bucket array in place. *)

type 'v chain =
  | Nil
  | Entry of
      { a : int
      ; b : int
      ; c : int
      ; d : int
      ; mutable v : 'v
      ; next : 'v chain
      }

type 'v t =
  { mutable buckets : 'v chain array (* power-of-two length *)
  ; mutable count : int
  ; m_hits : M.counter
  ; m_misses : M.counter
  ; g_peak : M.gauge
  }

let initial_buckets = 1024

let create ?(prefix = "dd.cache.") name =
  { buckets = Array.make initial_buckets Nil
  ; count = 0
  ; m_hits = M.counter (prefix ^ name ^ ".hits")
  ; m_misses = M.counter (prefix ^ name ^ ".misses")
  ; g_peak = M.gauge (prefix ^ name ^ ".peak")
  }

let length t = t.count

let slot buckets a b c d =
  let h = (((((a * 0x2545f491) + b) * 0x5851f42d) + c) * 0x4f6cdd1d) + d in
  let h = h * 0x1b873593 in
  (h lxor (h lsr 29)) land (Array.length buckets - 1)

let rec scan a b c d = function
  | Nil -> None
  | Entry e ->
    if e.a = a && e.b = b && e.c = c && e.d = d then Some e.v else scan a b c d e.next

let find t a b c d =
  let found = scan a b c d t.buckets.(slot t.buckets a b c d) in
  M.incr (if Option.is_some found then t.m_hits else t.m_misses);
  found

let rec overwrite a b c d v = function
  | Nil -> false
  | Entry e ->
    if e.a = a && e.b = b && e.c = c && e.d = d then begin
      e.v <- v;
      true
    end
    else overwrite a b c d v e.next

let rec move buckets = function
  | Nil -> ()
  | Entry e ->
    move buckets e.next;
    let i = slot buckets e.a e.b e.c e.d in
    buckets.(i) <- Entry { e with next = buckets.(i) }

let add t a b c d v =
  let i = slot t.buckets a b c d in
  if not (overwrite a b c d v t.buckets.(i)) then begin
    t.buckets.(i) <- Entry { a; b; c; d; v; next = t.buckets.(i) };
    t.count <- t.count + 1;
    if t.count > 2 * Array.length t.buckets then begin
      let buckets = Array.make (2 * Array.length t.buckets) Nil in
      Array.iter (move buckets) t.buckets;
      t.buckets <- buckets
    end;
    M.observe t.g_peak t.count
  end

let clear t =
  if t.count > 0 then begin
    Array.fill t.buckets 0 (Array.length t.buckets) Nil;
    t.count <- 0
  end
