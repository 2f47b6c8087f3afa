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

(* A subtree of the walk, lent where the walk splits: the outcomes of
   the branch points from the root down to its own (its own, 1, last),
   the probability of that path and the genuine branch points on it.
   Once it has run, [out] holds its counters and its leaves in pieces,
   the last found first: a run of leaves, or a subtree it split off
   there. *)
type subtree =
  { path : int list
  ; prob : float
  ; level : int
  ; mutable out : (piece list * counters) option
  }

and piece =
  | Leaves of (string * float) list
  | Split of subtree

(* One task of the branching walk, in a package of its own: it replays
   the forced prefix of [job] and walks the subtree below.  The prefix
   counts only its gates, which is work done; its branch points and
   pruned branches are counted by the task that walked them.

   A genuine branch point is one where both outcomes survive the cutoff.
   Within the first [levels] of them on a path, the walk lends its
   outcome-1 subtree ([split]) and goes on with outcome 0, so the leaves,
   branch points and pruned branches add up to the one-domain walk's.
   A deterministic measurement or reset does not split.

   Each branch frame holds its state in a registered root: the parent's
   pre-projection state stays rooted across the recursion into the first
   outcome, so automatic compaction at any checkpoint safepoint cannot
   sweep a state that a pending sibling branch still needs. *)
let walk ~split ~levels ~cutoff (c : Circ.t) job =
  let p = Pkg.create () in
  let n = c.Circ.num_qubits in
  let prog = Dd_sim.compile p c.Circ.ops in
  let counters = new_counters () in
  let leaves = ref [] and pieces = ref [] in
  let apply r s =
    counters.c_gates <- counters.c_gates + 1;
    Pkg.set_vroot r (Mat.apply_sig p ~n s (Pkg.vroot_edge r));
    Pkg.checkpoint p
  in
  (* [path] is the outcomes so far, the last first, kept only while a
     split may still come *)
  let rec go r pc cvals prob path level =
    if pc = Array.length prog then begin
      counters.c_leaves <- counters.c_leaves + 1;
      leaves := (Bytes.to_string cvals, prob) :: !leaves
    end
    else
      match prog.(pc) with
      | Dd_sim.Gate s ->
        apply r s;
        go r (pc + 1) cvals prob path level
      | Cond (cond, s) ->
        if Classical.cond_holds cond cvals then apply r s;
        go r (pc + 1) cvals prob path level
      | (Measure { qubit; _ } | Reset { qubit; _ }) as i ->
        counters.c_branch_points <- counters.c_branch_points + 1;
        let p0, p1 = outcome_probs p (Pkg.vroot_edge r) qubit in
        let live0 = prob *. p0 > cutoff and live1 = prob *. p1 > cutoff in
        let below = if live0 && live1 then level + 1 else level in
        let take o p_out =
          let state', cvals' = settle p ~n i (Pkg.vroot_edge r) cvals o in
          Pkg.with_root_v p state' (fun r' ->
              Pkg.checkpoint p;
              go r' (pc + 1) cvals' (prob *. p_out)
                (if below < levels then o :: path else [])
                below)
        in
        if live0 && live1 && level < levels then begin
          let sub =
            { path = List.rev (1 :: path); prob = prob *. p1; level = below; out = None }
          in
          pieces := Split sub :: Leaves !leaves :: !pieces;
          leaves := [];
          split sub;
          take 0 p0
        end
        else begin
          if live1 then take 1 p1 else counters.c_pruned <- counters.c_pruned + 1;
          if live0 then take 0 p0 else counters.c_pruned <- counters.c_pruned + 1
        end
  in
  (* no sibling waits on a forced outcome, so the replay keeps one root *)
  let rec replay r pc cvals = function
    | [] ->
      let path = if job.level < levels then List.rev job.path else [] in
      go r pc cvals job.prob path job.level
    | o :: rest as path ->
      (match prog.(pc) with
       | Dd_sim.Gate s ->
         apply r s;
         replay r (pc + 1) cvals path
       | Cond (cond, s) ->
         if Classical.cond_holds cond cvals then apply r s;
         replay r (pc + 1) cvals path
       | (Measure _ | Reset _) as i ->
         let state', cvals' = settle p ~n i (Pkg.vroot_edge r) cvals o in
         Pkg.set_vroot r state';
         Pkg.checkpoint p;
         replay r (pc + 1) cvals' rest)
  in
  Pkg.with_root_v p (Pkg.zero_state p n) (fun r ->
      replay r 0 (Bytes.make c.Circ.num_cbits '0') job.path);
  job.out <- Some (Leaves !leaves :: !pieces, counters)

(* The leaves of [job] and of the subtrees it split off, in the order the
   one-domain walk finds them, put before [acc]; the counters are added
   to [total]. *)
let rec collect total job acc =
  let pieces, c = Option.get job.out in
  total.c_leaves <- total.c_leaves + c.c_leaves;
  total.c_branch_points <- total.c_branch_points + c.c_branch_points;
  total.c_pruned <- total.c_pruned + c.c_pruned;
  total.c_gates <- total.c_gates + c.c_gates;
  List.fold_right
    (fun piece acc ->
      match piece with
      | Leaves l -> if acc = [] then l else l @ acc
      | Split sub -> collect total sub acc)
    pieces acc

let valid_cutoff cutoff = cutoff >= 0.0 && cutoff < 1.0

let check_cutoff fn cutoff =
  if not (valid_cutoff cutoff) then
    invalid_arg (Fmt.str "Extraction.%s: cutoff %g is outside [0, 1)" fn cutoff)

(* the least [k] with [2^k >= d] *)
let levels_for d =
  let rec go k = if 1 lsl k >= d then k else go (k + 1) in
  go 0

let run_in bag ?(cutoff = 1e-12) (c : Circ.t) =
  check_cutoff "run" cutoff;
  M.incr m_runs;
  let levels = levels_for (Par.Bag.domains bag) in
  let pending = Atomic.make 0 in
  let rec split sub =
    Atomic.incr pending;
    Par.Bag.lend bag (fun () ->
      walk ~split ~levels ~cutoff c sub;
      Atomic.decr pending)
  in
  let root = { path = []; prob = 1.0; level = 0; out = None } in
  Obs.Span.with_ "extract.walk" (fun () ->
    walk ~split ~levels ~cutoff c root;
    Par.Bag.help bag ~until:(fun () -> Atomic.get pending = 0));
  let counters = new_counters () in
  let leaves = collect counters root [] in
  publish_counters counters;
  { distribution = Classical.canonical leaves
  ; stats =
      { leaves = counters.c_leaves
      ; branch_points = counters.c_branch_points
      ; pruned = counters.c_pruned
      ; gate_applications = counters.c_gates
      }
  }

let run ?cutoff ?(domains = Domain.recommended_domain_count ()) c =
  if domains < 1 then invalid_arg (Fmt.str "Extraction.run: %d domains" domains);
  Par.Bag.run ~domains (fun bag -> run_in bag ?cutoff c)

let tree ?(cutoff = 1e-12) (c : Circ.t) =
  check_cutoff "tree" cutoff;
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
