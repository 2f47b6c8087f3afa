module Circ = Circuit.Circ
module Op = Circuit.Op

type stimuli =
  | Basis
  | Product
  | Entangled

(* The CLI-facing stimuli names predate [Qsim.Stimuli]; they map onto the
   paper's three classes one-for-one. *)
let stimuli_class = function
  | Basis -> Qsim.Stimuli.Classical
  | Product -> Qsim.Stimuli.Local_quantum
  | Entangled -> Qsim.Stimuli.Global_quantum

type t =
  | Construction
  | Sequential
  | Proportional
  | Lookahead
  | Simulation of int
  | Random_stimuli of
      { kind : stimuli
      ; shots : int
      }

type outcome =
  { equivalent : bool
  ; equivalent_up_to_phase : bool
  ; peak_nodes : int
  }

let default = Proportional

let name = function
  | Construction -> "construction"
  | Sequential -> "sequential"
  | Proportional -> "proportional"
  | Lookahead -> "lookahead"
  | Simulation k -> Fmt.str "simulation(%d)" k
  | Random_stimuli { kind; shots } ->
    let kind =
      match kind with Basis -> "basis" | Product -> "product" | Entangled -> "entangled"
    in
    Fmt.str "stimuli(%s,%d)" kind shots

let pp ppf s = Fmt.string ppf (name s)

(* Inverse of [name], used by the CLI and the batch manifest parser.
   Accepts the bare strategy names plus [simulation:<shots>] and
   [stimuli:<basis|product|entangled>:<shots>]. *)
let of_string s =
  let shots_of v =
    match int_of_string_opt v with
    | Some k when k > 0 -> Ok k
    | _ -> Error (Fmt.str "expected a positive shot count, got %S" v)
  in
  match String.split_on_char ':' s with
  | [ "construction" ] -> Ok Construction
  | [ "sequential" ] -> Ok Sequential
  | [ "proportional" ] -> Ok Proportional
  | [ "lookahead" ] -> Ok Lookahead
  | [ "simulation"; k ] -> Result.map (fun k -> Simulation k) (shots_of k)
  | [ "stimuli"; kind; k ] ->
    let kind =
      match kind with
      | "basis" -> Ok Basis
      | "product" -> Ok Product
      | "entangled" -> Ok Entangled
      | other -> Error (Fmt.str "unknown stimuli kind %S" other)
    in
    Result.bind kind (fun kind ->
      Result.map (fun shots -> Random_stimuli { kind; shots }) (shots_of k))
  | _ ->
    Error
      (Fmt.str
         "unknown strategy %S (expected construction, sequential, proportional, \
          lookahead, simulation:<shots>, or stimuli:<kind>:<shots>)"
         s)

(* Map a portfolio candidate (composed by [Analysis.Cost], which cannot
   depend on this library) onto a runnable strategy. *)
let of_candidate = function
  | Analysis.Cost.Proportional_candidate -> Proportional
  | Analysis.Cost.Lookahead_candidate -> Lookahead
  | Analysis.Cost.Classical_stimuli shots -> Random_stimuli { kind = Basis; shots }
  | Analysis.Cost.Local_stimuli shots -> Random_stimuli { kind = Product; shots }
  | Analysis.Cost.Global_stimuli shots -> Random_stimuli { kind = Entangled; shots }

exception Non_unitary of Op.t

let unitary_ops (c : Circ.t) =
  List.filter
    (function
      | Op.Apply _ | Op.Swap _ -> true
      | Op.Measure _ | Op.Barrier _ -> false
      | (Op.Reset _ | Op.Cond _) as op -> raise (Non_unitary op))
    c.Circ.ops

module Pkg = Dd.Pkg
module Vec = Dd.Vec
module Mat = Dd.Mat
module Sim = Qsim.Dd_sim

let check_construction p (g : Circ.t) (g' : Circ.t) =
  (* keep [u] rooted while [u'] is built: construction may cross auto-GC
     safepoints inside [build_unitary] *)
  Pkg.with_root_m p
    (Sim.build_unitary p (Circ.strip_measurements g))
    (fun ru ->
      let u' = Sim.build_unitary p (Circ.strip_measurements g') in
      let u = Pkg.mroot_edge ru in
      { equivalent = Mat.equal p u u'
      ; equivalent_up_to_phase = Mat.equal_up_to_phase p u u'
      ; peak_nodes = Mat.node_count u + Mat.node_count u'
      })

(* The alternating scheme: maintain M, initially I, and aim for
   M = G'^dagger * G = I.  Gates of G multiply from the left
   (M <- U_i * M); inverted gates of G' from the right
   (M <- M * U'_j^dagger), in forward order: at the end
   M = G * G'^dagger, which is I iff G = G'. *)
(* M = I is decided on the canonical DD alone.  A trace test
   |Tr M - 2^n| <= eps 2^n is relative, so it cannot see a difference
   confined to a small subspace (a Z with k controls moves Tr M by
   2^(n-k)). *)
let identity_outcome p m ~n ~peak =
  let exact = Mat.is_identity p m ~n ~up_to_phase:false in
  let up_to_phase = exact || Mat.is_identity p m ~n ~up_to_phase:true in
  { equivalent = exact
  ; equivalent_up_to_phase = up_to_phase
  ; peak_nodes = max peak (Mat.node_count m)
  }

let check_alternating ~take_left p (g : Circ.t) (g' : Circ.t) =
  let n = g.Circ.num_qubits in
  let left = unitary_ops g and right = unitary_ops g' in
  let nl = List.length left and nr = List.length right in
  Pkg.with_root_m p (Pkg.ident p n) (fun rm ->
      let peak = ref 0 in
      let apply_left op =
        Pkg.set_mroot rm (Sim.mul_op_left p ~n op (Pkg.mroot_edge rm));
        peak := max !peak (Mat.node_count (Pkg.mroot_edge rm));
        Pkg.checkpoint p
      in
      let apply_right op =
        Pkg.set_mroot rm (Sim.mul_op_right p ~n op (Pkg.mroot_edge rm));
        peak := max !peak (Mat.node_count (Pkg.mroot_edge rm));
        Pkg.checkpoint p
      in
      (* advance the side that is proportionally behind *)
      let rec go i j left right =
        match (left, right) with
        | [], [] -> ()
        | op :: rest, [] ->
          apply_left op;
          go (i + 1) j rest []
        | [], op :: rest ->
          apply_right op;
          go i (j + 1) [] rest
        | opl :: restl, opr :: restr ->
          if take_left ~i ~j ~nl ~nr then begin
            apply_left opl;
            go (i + 1) j restl right
          end
          else begin
            apply_right opr;
            go i (j + 1) left restr
          end
      in
      go 0 0 left right;
      identity_outcome p (Pkg.mroot_edge rm) ~n ~peak:!peak)

(* How far the cost-aware schedule may drift from the proportional
   position before it is forced back: at state (i, j) the scheduler must
   keep |i - j * nl / nr| within this many ops.  Bounds the damage of a
   misleading cost profile. *)
let lookahead_window = 8

(* The analysis-driven lookahead scheme.  A static per-op cost profile
   (Clifford membership, entangling structure, cancellation pairs — see
   [Analysis.Cost]) is computed for both op streams, and the scheduler
   advances whichever side keeps the *applied cost mass* balanced: the
   expensive region of one circuit is consumed against the gates of the
   other that are meant to cancel it, instead of against a count of
   cheap gates.  When the static profile has no clear preference (the
   two balances differ by less than half an average step), the scheduler
   falls back to evaluating both candidate products and keeping the
   smaller one — the classic greedy lookahead, at the price of two
   multiplications for that step — with the proportional order as the
   final tie-break.  A window bound keeps the schedule within
   [lookahead_window] ops of the proportional position either way. *)
let check_lookahead p (g : Circ.t) (g' : Circ.t) =
  let n = g.Circ.num_qubits in
  let left = unitary_ops g and right = unitary_ops g' in
  let nl = List.length left and nr = List.length right in
  let cumulative w =
    let k = Array.length w in
    let c = Array.make (k + 1) 0.0 in
    for i = 0 to k - 1 do
      c.(i + 1) <- c.(i) +. w.(i)
    done;
    c
  in
  let cuml = cumulative (Analysis.Cost.op_weights ~num_qubits:n left) in
  let cumr = cumulative (Analysis.Cost.op_weights ~num_qubits:n right) in
  let tl = Float.max cuml.(nl) epsilon_float in
  let tr = Float.max cumr.(nr) epsilon_float in
  (* half the average normalized step: below this the profile's
     preference is noise *)
  let tie_eps =
    0.25 *. ((1.0 /. float_of_int (max nl 1)) +. (1.0 /. float_of_int (max nr 1)))
  in
  let left_of op m = Sim.mul_op_left p ~n op m in
  let right_of op m = Sim.mul_op_right p ~n op m in
  Pkg.with_root_m p (Pkg.ident p n) (fun rm ->
      let peak = ref 0 in
      let advance next =
        Pkg.set_mroot rm next;
        peak := max !peak (Mat.node_count next);
        Pkg.checkpoint p
      in
      let rec go i j left right =
        let m = Pkg.mroot_edge rm in
        match (left, right) with
        | [], [] -> ()
        | op :: rest, [] ->
          advance (left_of op m);
          go (i + 1) j rest []
        | [], op :: rest ->
          advance (right_of op m);
          go i (j + 1) [] rest
        | opl :: restl, opr :: restr ->
          let take_left =
            (* window guard: don't let either side run away from the
               proportional position *)
            if i * nr - (j * nl) > lookahead_window * nr then false
            else if (j * nl) - (i * nr) > lookahead_window * nl then true
            else begin
              (* cost-mass imbalance after advancing each side *)
              let bal_l =
                Float.abs ((cuml.(i + 1) /. tl) -. (cumr.(j) /. tr))
              and bal_r =
                Float.abs ((cuml.(i) /. tl) -. (cumr.(j + 1) /. tr))
              in
              if Float.abs (bal_l -. bal_r) > tie_eps then bal_l < bal_r
              else begin
                (* static tie: evaluate both candidate products (computed
                   before either is rooted; no safepoint separates them,
                   so both stay canonical) *)
                let ml = left_of opl m and mr = right_of opr m in
                let cl = Mat.node_count ml and cr = Mat.node_count mr in
                if cl <> cr then cl < cr else i * nr <= j * nl
              end
            end
          in
          if take_left then begin
            advance (left_of opl m);
            go (i + 1) j restl right
          end
          else begin
            advance (right_of opr m);
            go i (j + 1) left restr
          end
      in
      go 0 0 left right;
      identity_outcome p (Pkg.mroot_edge rm) ~n ~peak:!peak)

(* Materialize a stimulus description ([Qsim.Stimuli] draws it as pure
   data) as a DD state vector. *)
let materialize p ~n (s : Qsim.Stimuli.t) =
  match s with
  | Qsim.Stimuli.Basis_state bits -> Pkg.basis_state p n (fun q -> bits.(q))
  | Qsim.Stimuli.Product_state amps -> Pkg.product_state p amps
  | Qsim.Stimuli.Stabilizer_state { bits; prep } ->
    Pkg.with_root_v p (Pkg.basis_state p n (fun q -> bits.(q))) (fun r ->
        List.iter
          (fun op ->
            Pkg.set_vroot r (Sim.apply_op p ~n (Pkg.vroot_edge r) op);
            Pkg.checkpoint p)
          prep;
        Pkg.vroot_edge r)

let random_stimulus p ~kind ~n st =
  materialize p ~n (Qsim.Stimuli.draw st (stimuli_class kind) ~num_qubits:n)

let check_simulation p ?seed ~kind shots (g : Circ.t) (g' : Circ.t) =
  let n = g.Circ.num_qubits in
  let ops = unitary_ops g and ops' = unitary_ops g' in
  (* deterministic by construction: the default stream depends only on
     the instance shape, and an explicit [seed] (batch runs derive one
     per job from the manifest seed, portfolio races one per candidate)
     extends rather than replaces it — see [Qsim.Stimuli.rng] *)
  let st = Qsim.Stimuli.rng ?seed ~num_qubits:n ~shots () in
  let prog = Sim.compile p ops and prog' = Sim.compile p ops' in
  let run prog state =
    Pkg.with_root_v p state (fun r ->
        Array.iter
          (function
            | Sim.Gate s ->
              Pkg.set_vroot r (Mat.apply_sig p ~n s (Pkg.vroot_edge r));
              Pkg.checkpoint p
            | Cond _ | Measure _ | Reset _ -> assert false (* [unitary_ops] *))
          prog;
        Pkg.vroot_edge r)
  in
  (* the input must stay rooted while both circuits run on it, and the
     first output while the second one is produced; roots are released
     per shot *)
  let one_shot () =
    Pkg.with_root_v p (random_stimulus p ~kind ~n st) (fun rin ->
        Pkg.with_root_v p (run prog (Pkg.vroot_edge rin)) (fun rout ->
            let out' = run prog' (Pkg.vroot_edge rin) in
            let out = Pkg.vroot_edge rout in
            let fid = Vec.fidelity p out out' in
            ( Float.abs (fid -. 1.0) <= 1e-9
            , Vec.node_count out + Vec.node_count out' )))
  in
  let rec shoot k ok peak =
    if k = 0 || not ok then (ok, peak)
    else begin
      let ok', nodes = one_shot () in
      shoot (k - 1) (ok && ok') (max peak nodes)
    end
  in
  let ok, peak = shoot shots true 0 in
  { equivalent = ok; equivalent_up_to_phase = ok; peak_nodes = peak }

let check ?seed p strategy (g : Circ.t) (g' : Circ.t) =
  if g.Circ.num_qubits <> g'.Circ.num_qubits then
    invalid_arg "Strategy.check: circuits act on different numbers of qubits";
  match strategy with
  | Construction -> check_construction p g g'
  | Sequential ->
    check_alternating
      ~take_left:(fun ~i:_ ~j:_ ~nl:_ ~nr:_ -> true)
      p g g'
  | Proportional ->
    (* advance whichever side is proportionally behind *)
    check_alternating
      ~take_left:(fun ~i ~j ~nl ~nr -> i * nr <= j * nl)
      p g g'
  | Lookahead -> check_lookahead p g g'
  | Simulation shots -> check_simulation p ?seed ~kind:Basis shots g g'
  | Random_stimuli { kind; shots } ->
    check_simulation p ?seed ~kind shots g g'
