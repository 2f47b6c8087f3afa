type value = { re : float; im : float; id : int }

(* observability: interning traffic across all tables in the process *)
let m_hits = Obs.Metrics.counter "cx.table.hits"
let m_inserts = Obs.Metrics.counter "cx.table.inserts"

let zero = { re = 0.0; im = 0.0; id = 0 }
let one = { re = 1.0; im = 0.0; id = 1 }
let is_zero v = v.id = 0
let is_one v = v.id = 1
let to_cx v = Cx.make v.re v.im

(* Interning is *relative*: two values are identified when their components
   agree within [tol] of their common magnitude scale.  Edge weights in a
   decision diagram range over many orders of magnitude (a 128-qubit
   Hadamard layer contributes (1/sqrt 2)^128 ~ 5e-20 to the root weight), so
   an absolute grid would collapse everything small to zero.  Values are
   bucketed by binary exponent e of their dominant component plus a
   [tol]-wide grid over the exponent-normalized components.

   A lookup walks the cells that can hold a match in a fixed order:
   exponent e, then e+1, then e-1; per axis the offsets 0, +1, -1; within a
   cell the newest entry first.  It stops at the first match.  A match lies
   within the radius tol*m/(1-tol) of the argument (m its magnitude), so a
   neighbour cell is probed only when that radius, plus a rounding margin,
   reaches past the home cell's edge, and e+1 (e-1) only when m lies within
   4*tol of that power of two.  A skipped cell cannot hold a match, so the
   representative is the one the full 27-cell walk would find. *)
type chain =
  | Nil
  | Entry of
      { v : value
      ; e : int
      ; kr : int
      ; ki : int
      ; next : chain
      }

type t =
  { tol : float
  ; slack : float (* rounding margin on the match radius, in cells *)
  ; mutable cells : chain array (* power-of-two length; chains every cell hashed to a slot *)
  ; mutable next_id : int
  ; mutable count : int (* live interned values, including 0 and 1 *)
  }

(* Values this small cannot be distinguished from exact zero by any
   computation we perform; they are also well below the smallest legitimate
   amplitude of a 400-qubit state. *)
let hard_zero = 1e-250

let initial_slots = 4096

let magnitude (z : Cx.t) = Float.max (Float.abs z.Cx.re) (Float.abs z.Cx.im)

(* [snd (Float.frexp m)], read from the float's bits when [m] is normal:
   a biased exponent field [b] in 1..2046 means [m = f * 2^(b - 1022)]
   with [0.5 <= f < 1]. *)
let exponent_of m =
  let b = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float m) 52) land 0x7ff in
  if b > 0 && b < 0x7ff then b - 1022 else snd (Float.frexp m)

(* Grid positions are at most 2/tol in size, so rounding moves each of the
   two compared ones by under epsilon/tol cells; the 1e-4 dominates at the
   default tolerance. *)
let create ?(tol = 1e-10) () =
  { tol
  ; slack = 1e-4 +. (4.0 *. epsilon_float /. tol)
  ; cells = Array.make initial_slots Nil
  ; next_id = 2
  ; count = 2
  }

let tol t = t.tol

(* Relative comparison at the scale of the larger operand. *)
let matches t (z : Cx.t) (v : value) =
  let scale = Float.max (magnitude z) (Float.max (Float.abs v.re) (Float.abs v.im)) in
  Float.abs (v.re -. z.Cx.re) <= t.tol *. scale
  && Float.abs (v.im -. z.Cx.im) <= t.tol *. scale

let slot cells e kr ki =
  let h = ((((e * 0x2545f491) + kr) * 0x5851f42d) + ki) * 0x4f6cdd1d in
  (h lxor (h lsr 29)) land (Array.length cells - 1)

(* [absent] marks a miss without allocating an option. *)
let absent = { re = nan; im = nan; id = -1 }

let rec scan t z e kr ki = function
  | Nil -> absent
  | Entry c ->
    if c.kr = kr && c.ki = ki && c.e = e && matches t z c.v then c.v
    else scan t z e kr ki c.next

let find_in_cell t z e kr ki = scan t z e kr ki t.cells.(slot t.cells e kr ki)

(* offsets 0, +1, -1 on the imaginary axis of row [kr] *)
let probe_row t z e kr ki ~up ~down =
  let v = find_in_cell t z e kr ki in
  if v != absent then v
  else begin
    let v = if up then find_in_cell t z e kr (ki + 1) else absent in
    if v != absent || not down then v else find_in_cell t z e kr (ki - 1)
  end

let probe_exponent t (z : Cx.t) e =
  let s = Float.ldexp 1.0 e in
  let xr = z.Cx.re /. s /. t.tol and xi = z.Cx.im /. s /. t.tol in
  let kr = int_of_float (Float.round xr) and ki = int_of_float (Float.round xi) in
  let reach = (magnitude z /. s /. (1.0 -. t.tol)) +. t.slack in
  let fr = xr -. float_of_int kr and fi = xi -. float_of_int ki in
  let up = fi +. reach >= 0.5 and down = fi -. reach <= -0.5 in
  let v = probe_row t z e kr ki ~up ~down in
  if v != absent then v
  else begin
    let v = if fr +. reach >= 0.5 then probe_row t z e (kr + 1) ki ~up ~down else absent in
    if v != absent || fr -. reach > -0.5 then v
    else probe_row t z e (kr - 1) ki ~up ~down
  end

(* Re-slot every entry into [cells], oldest first, so each cell keeps its
   newest-first order. *)
let rec move cells = function
  | Nil -> ()
  | Entry c ->
    move cells c.next;
    let i = slot cells c.e c.kr c.ki in
    cells.(i) <- Entry { c with next = cells.(i) }

(* [v] goes into its home cell: exponent [e] of its magnitude. *)
let insert t v =
  let e = exponent_of (Float.max (Float.abs v.re) (Float.abs v.im)) in
  let s = Float.ldexp 1.0 e in
  let kr = int_of_float (Float.round (v.re /. s /. t.tol))
  and ki = int_of_float (Float.round (v.im /. s /. t.tol)) in
  let i = slot t.cells e kr ki in
  t.cells.(i) <- Entry { v; e; kr; ki; next = t.cells.(i) };
  t.count <- t.count + 1;
  if t.count > 2 * Array.length t.cells then begin
    let cells = Array.make (2 * Array.length t.cells) Nil in
    Array.iter (move cells) t.cells;
    t.cells <- cells
  end

let lookup t (z : Cx.t) =
  let m = magnitude z in
  if m < hard_zero then begin
    Obs.Metrics.incr m_hits;
    zero
  end
  else if z.Cx.re = 1.0 && z.Cx.im = 0.0 then begin
    Obs.Metrics.incr m_hits;
    one
  end
  else begin
    let e = exponent_of m in
    let hi = Float.ldexp 1.0 e (* m < hi <= 2m *) in
    let v = probe_exponent t z e in
    let v =
      if v == absent && hi -. m <= 4.0 *. t.tol *. hi then probe_exponent t z (e + 1)
      else v
    in
    let v =
      if v == absent && m -. (0.5 *. hi) <= 2.0 *. t.tol *. hi then
        probe_exponent t z (e - 1)
      else v
    in
    if v != absent then begin
      Obs.Metrics.incr m_hits;
      v
    end
    else if matches t z one then begin
      Obs.Metrics.incr m_hits;
      one
    end
    else begin
      let v = { re = z.Cx.re; im = z.Cx.im; id = t.next_id } in
      t.next_id <- t.next_id + 1;
      insert t v;
      Obs.Metrics.incr m_inserts;
      v
    end
  end

let size t = t.count

(* Garbage collection: re-seed the table with exactly the given survivors,
   in ascending id order, so every cell lists them newest first as if they
   had just been interned.  Ids are *not* recycled — [next_id] keeps rising
   monotonically — so a stale value held by a caller can never collide with
   a freshly interned one; it merely loses sharing with the new
   representative of the same complex number.  Survivors with ids 0/1 (the
   pre-interned constants, which live outside the cells) are skipped; the
   caller is expected to pass each survivor once. *)
let rebuild t survivors =
  let survivors =
    List.sort (fun a b -> Int.compare a.id b.id) (List.filter (fun v -> v.id > 1) survivors)
  in
  let n = List.length survivors in
  let rec slots k = if 2 * k >= n then k else slots (2 * k) in
  t.cells <- Array.make (slots initial_slots) Nil;
  t.count <- 2;
  List.iter (insert t) survivors

let pp ppf v = Cx.pp ppf (to_cx v)
