let cond_holds (cond : Circuit.Op.cond) cvals =
  let rec value i acc = function
    | [] -> acc
    | b :: rest ->
      value (i + 1) (if Bytes.get cvals b = '1' then acc lor (1 lsl i) else acc) rest
  in
  value 0 0 cond.bits = cond.value

let rec strictly_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && strictly_sorted rest
  | _ -> true

let canonical d =
  if strictly_sorted d then d
  else
    let rec sum acc = function
      | (k, p) :: (k', p') :: rest when String.equal k k' -> sum acc ((k, p +. p') :: rest)
      | e :: rest -> sum (e :: acc) rest
      | [] -> List.rev acc
    in
    sum [] (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) d)
