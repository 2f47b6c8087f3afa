type t = (string * float) list

(* [fold2 f acc a b] folds [f] over the union of the assignments of [a]
   and [b] in key order, with 0 for the side that lacks one; it walks the
   two canonical lists in step. *)
let fold2 f acc a b =
  let rec go acc a b =
    match (a, b) with
    | [], [] -> acc
    | (_, pa) :: ra, [] -> go (f acc pa 0.0) ra []
    | [], (_, pb) :: rb -> go (f acc 0.0 pb) [] rb
    | (ka, pa) :: ra, (kb, pb) :: rb ->
      let c = String.compare ka kb in
      if c = 0 then go (f acc pa pb) ra rb
      else if c < 0 then go (f acc pa 0.0) ra b
      else go (f acc 0.0 pb) a rb
  in
  go acc (Qsim.Classical.canonical a) (Qsim.Classical.canonical b)

let total_variation a b =
  fold2 (fun acc pa pb -> acc +. Float.abs (pa -. pb)) 0.0 a b /. 2.0

let fidelity a b = fold2 (fun acc pa pb -> acc +. Float.sqrt (pa *. pb)) 0.0 a b

let equal ?(eps = 1e-9) a b = total_variation a b <= eps

let marginalize d ~bits =
  let project key =
    String.init (List.length bits) (fun k -> key.[List.nth bits k])
  in
  Qsim.Classical.canonical (List.map (fun (k, v) -> (project k, v)) d)

let mass d = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d

let most_probable ?(count = 10) d =
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare b a) d in
  List.filteri (fun i _ -> i < count) sorted

let pp ppf d =
  let entry ppf (k, v) = Fmt.pf ppf "|%s> : %.6f" k v in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut entry) d
