module Op = Circuit.Op
module Circ = Circuit.Circ
module M = Obs.Metrics

(* observability: totals of the per-run counters below, accumulated across
   every extraction in the process (merged once per walk, so the branching
   loop itself stays uninstrumented). *)
let m_leaves = M.counter "extract.leaves"
let m_branch_points = M.counter "extract.branch_points"
let m_pruned = M.counter "extract.pruned"
let m_gates = M.counter "extract.gate_applications"
let m_runs = M.counter "extract.runs"

type stats =
  { leaves : int
  ; branch_points : int
  ; pruned : int
  ; gate_applications : int
  }

type result =
  { distribution : (string * float) list
  ; stats : stats
  }

type counters =
  { mutable c_leaves : int
  ; mutable c_branch_points : int
  ; mutable c_pruned : int
  ; mutable c_gates : int
  }

let new_counters () = { c_leaves = 0; c_branch_points = 0; c_pruned = 0; c_gates = 0 }

let publish_counters c =
  M.add m_leaves c.c_leaves;
  M.add m_branch_points c.c_branch_points;
  M.add m_pruned c.c_pruned;
  M.add m_gates c.c_gates

type tree =
  | Leaf of
      { cvals : string
      ; probability : float
      }
  | Branch of
      { qubit : int
      ; cbit : int option
      ; p0 : float
      ; p1 : float
      ; zero : tree option
      ; one : tree option
      }

let rec pp_tree ppf = function
  | Leaf { cvals; probability } -> Fmt.pf ppf "|%s> : %.4f" cvals probability
  | Branch { qubit; cbit; p0; p1; zero; one } ->
    let what =
      match cbit with
      | Some cb -> Fmt.str "measure q%d -> c%d" qubit cb
      | None -> Fmt.str "reset q%d" qubit
    in
    let pp_side ppf (label, prob, side) =
      match side with
      | None -> Fmt.pf ppf "%s (p=%.4f): pruned" label prob
      | Some t -> Fmt.pf ppf "@[<v 2>%s (p=%.4f):@,%a@]" label prob pp_tree t
    in
    Fmt.pf ppf "@[<v>%s@,%a@,%a@]" what pp_side ("0", p0, zero) pp_side ("1", p1, one)

module Pkg = Dd.Pkg
module Vec = Dd.Vec
module Mat = Dd.Mat

(* Outcome probabilities of one qubit, renormalized against accumulated
   drift.  The state is kept normalized along every path, so p0 + p1 is 1
   up to rounding. *)
let outcome_probs p state qubit =
  let p0, p1 = Vec.probabilities p state qubit in
  let total = p0 +. p1 in
  (p0 /. total, p1 /. total)

(* The state and classical bits that outcome [o] of a branch point
   leaves: a measurement records [o] in a copy of the bits, a reset
   flips outcome 1 back to |0>. *)
let settle p ~n (i : Dd_sim.instr) state cvals o =
  match i with
  | Measure { qubit; cbit } ->
    let cvals' = Bytes.copy cvals in
    Bytes.set cvals' cbit (if o = 1 then '1' else '0');
    (Vec.project p state qubit o, cvals')
  | Reset { qubit; x } ->
    let state' = Vec.project p state qubit o in
    ((if o = 1 then Mat.apply_sig p ~n x state' else state'), cvals)
  | Gate _ | Cond _ -> assert false (* branch points only *)

(* The core branching walk over a program compiled for [p]; it returns
   the leaves, one (assignment, probability) pair per path.  [forced]
   optionally prescribes outcomes for the first branch points (used by
   the parallel driver).

   Each branch frame holds its state in a registered root: the parent's
   pre-projection state stays rooted across the recursion into the first
   outcome, so automatic compaction at any checkpoint safepoint cannot
   sweep a state that a pending sibling branch still needs. *)
let walk ~pkg:p ~n ~cutoff ~counters ?(forced = [||]) prog num_cbits =
  let leaves = ref [] in
  let apply r s =
    counters.c_gates <- counters.c_gates + 1;
    Pkg.set_vroot r (Mat.apply_sig p ~n s (Pkg.vroot_edge r));
    Pkg.checkpoint p
  in
  let rec go r pc cvals prob depth =
    if pc = Array.length prog then begin
      counters.c_leaves <- counters.c_leaves + 1;
      leaves := (Bytes.to_string cvals, prob) :: !leaves
    end
    else
      match prog.(pc) with
      | Dd_sim.Gate s ->
        apply r s;
        go r (pc + 1) cvals prob depth
      | Cond (cond, s) ->
        if Classical.cond_holds cond cvals then apply r s;
        go r (pc + 1) cvals prob depth
      | (Measure { qubit; _ } | Reset { qubit; _ }) as i ->
        counters.c_branch_points <- counters.c_branch_points + 1;
        let p0, p1 = outcome_probs p (Pkg.vroot_edge r) qubit in
        let take o p_out =
          let state', cvals' = settle p ~n i (Pkg.vroot_edge r) cvals o in
          Pkg.with_root_v p state' (fun r' ->
              Pkg.checkpoint p;
              go r' (pc + 1) cvals' (prob *. p_out) (depth + 1))
        in
        if depth < Array.length forced then begin
          let o = forced.(depth) in
          let p_out = if o = 1 then p1 else p0 in
          if prob *. p_out > cutoff then take o p_out
        end
        else begin
          if prob *. p1 > cutoff then take 1 p1
          else counters.c_pruned <- counters.c_pruned + 1;
          if prob *. p0 > cutoff then take 0 p0
          else counters.c_pruned <- counters.c_pruned + 1
        end
  in
  Pkg.with_root_v p (Pkg.zero_state p n) (fun r ->
      go r 0 (Bytes.make num_cbits '0') 1.0 0);
  !leaves

let result leaves counters =
  publish_counters counters;
  { distribution = Classical.canonical leaves
  ; stats =
      { leaves = counters.c_leaves
      ; branch_points = counters.c_branch_points
      ; pruned = counters.c_pruned
      ; gate_applications = counters.c_gates
      }
  }

let run_sequential ~cutoff (c : Circ.t) =
  let p = Pkg.create () in
  let counters = new_counters () in
  let leaves =
    Obs.Span.with_ "extract.walk" (fun () ->
      walk ~pkg:p ~n:c.Circ.num_qubits ~cutoff ~counters
        (Dd_sim.compile p c.Circ.ops) c.Circ.num_cbits)
  in
  result leaves counters

(* Parallel driver: the first [depth] branch points are forced per task,
   so the 2^depth tasks partition the branching tree; each re-simulates
   its prefix in a private package (DD nodes cannot be shared across
   domains). *)
let run_parallel ~cutoff ~domains (c : Circ.t) =
  let branchy =
    List.exists (function Op.Measure _ | Op.Reset _ -> true | _ -> false) c.Circ.ops
  in
  if not branchy then run_sequential ~cutoff c
  else begin
    let rec depth_for d = if 1 lsl d >= domains then d else depth_for (d + 1) in
    let n_branches =
      List.length
        (List.filter (function Op.Measure _ | Op.Reset _ -> true | _ -> false) c.Circ.ops)
    in
    let depth = min (depth_for 0) n_branches in
    let tasks = 1 lsl depth in
    let task_of idx () =
      let p = Pkg.create () in
      let counters = new_counters () in
      let forced = Array.init depth (fun k -> (idx lsr k) land 1) in
      let leaves =
        walk ~pkg:p ~n:c.Circ.num_qubits ~cutoff ~counters ~forced
          (Dd_sim.compile p c.Circ.ops) c.Circ.num_cbits
      in
      (leaves, counters)
    in
    (* run at most [domains] tasks simultaneously: the first of each
       batch on the calling domain, the others on helper domains, whose
       registries are folded into the caller at join *)
    let results = Array.make tasks None in
    Obs.Span.with_ "extract.walk.parallel" (fun () ->
      let next = ref 0 in
      while !next < tasks do
        let first = !next in
        let batch = min domains (tasks - first) in
        let r, others =
          Par.Helper.fork_join
            (List.init (batch - 1) (fun k -> task_of (first + 1 + k)))
            (task_of first)
        in
        results.(first) <- Some r;
        List.iteri (fun k (r, _) -> results.(first + 1 + k) <- Some r) others;
        next := first + batch
      done);
    let counters = new_counters () in
    let leaves =
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some (leaves, ctr) ->
            counters.c_leaves <- counters.c_leaves + ctr.c_leaves;
            counters.c_branch_points <- counters.c_branch_points + ctr.c_branch_points;
            counters.c_pruned <- counters.c_pruned + ctr.c_pruned;
            counters.c_gates <- counters.c_gates + ctr.c_gates;
            List.rev_append leaves acc)
        [] results
    in
    result leaves counters
  end

let run ?(cutoff = 1e-12) ?(domains = 1) c =
  M.incr m_runs;
  if domains <= 1 then run_sequential ~cutoff c else run_parallel ~cutoff ~domains c

let tree ?(cutoff = 1e-12) (c : Circ.t) =
  let p = Pkg.create () in
  let n = c.Circ.num_qubits in
  let prog = Dd_sim.compile p c.Circ.ops in
  let apply r s =
    Pkg.set_vroot r (Mat.apply_sig p ~n s (Pkg.vroot_edge r));
    Pkg.checkpoint p
  in
  let rec go r pc cvals prob =
    if pc = Array.length prog then
      Leaf { cvals = Bytes.to_string cvals; probability = prob }
    else
      match prog.(pc) with
      | Dd_sim.Gate s ->
        apply r s;
        go r (pc + 1) cvals prob
      | Cond (cond, s) ->
        if Classical.cond_holds cond cvals then apply r s;
        go r (pc + 1) cvals prob
      | (Measure { qubit; _ } | Reset { qubit; _ }) as i ->
        let p0, p1 = outcome_probs p (Pkg.vroot_edge r) qubit in
        let side o p_out =
          if prob *. p_out > cutoff then begin
            let state', cvals' = settle p ~n i (Pkg.vroot_edge r) cvals o in
            Some
              (Pkg.with_root_v p state' (fun r' ->
                   Pkg.checkpoint p;
                   go r' (pc + 1) cvals' (prob *. p_out)))
          end
          else None
        in
        let cbit = match i with Measure { cbit; _ } -> Some cbit | _ -> None in
        Branch { qubit; cbit; p0; p1; zero = side 0 p0; one = side 1 p1 }
  in
  Pkg.with_root_v p (Pkg.zero_state p n) (fun r ->
      go r 0 (Bytes.make c.Circ.num_cbits '0') 1.0)
