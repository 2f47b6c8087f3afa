(* jpath FILE PATH... prints the value at each path of a JSON file, one
   [path: value] line per path, for a cram transcript to pin.  A [.jsonl]
   file reads as the list of its lines.  Steps are separated by '/',
   since metric names contain dots: a name selects an object member, [*]
   maps the rest of the path over a list, [k=v] selects the first list
   element whose member [k] is [v] (a string, or any value in its JSON
   form), and [@keys] is an object's member names, in order.  A path that
   resolves to nothing prints [(none)] and makes the exit code 1. *)

module J = Qcec_json

let read path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  if Filename.check_suffix path ".jsonl" then
    J.List
      (String.split_on_char '\n' s
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map J.of_string)
  else J.of_string s

let is k want x =
  match J.member k x with
  | Some (J.String s) -> s = want
  | Some m -> J.to_string m = want
  | None -> false

let rec resolve v = function
  | [] -> Some v
  | "@keys" :: rest ->
    (match v with
     | J.Obj members -> resolve (J.List (List.map (fun (k, _) -> J.String k) members)) rest
     | _ -> None)
  | "*" :: rest ->
    (match v with
     | J.List l ->
       let ys = List.filter_map (fun x -> resolve x rest) l in
       if List.length ys = List.length l then Some (J.List ys) else None
     | _ -> None)
  | step :: rest ->
    let found =
      match (v, String.index_opt step '=') with
      | J.List l, Some e ->
        let k = String.sub step 0 e in
        List.find_opt (is k (String.sub step (e + 1) (String.length step - e - 1))) l
      | _ -> J.member step v
    in
    Option.bind found (fun x -> resolve x rest)

let () =
  match Array.to_list Sys.argv with
  | _ :: file :: (_ :: _ as paths) ->
    let doc = read file in
    let found =
      List.map
        (fun path ->
          let v = resolve doc (String.split_on_char '/' path) in
          print_endline (path ^ ": " ^ Option.fold ~none:"(none)" ~some:J.to_string v);
          v <> None)
        paths
    in
    if List.mem false found then exit 1
  | _ ->
    prerr_endline "usage: jpath FILE PATH...";
    exit 2
