module M = Obs.Metrics
module J = Obs.Json

let m_hits = M.counter "cache.result.hits"
let m_misses = M.counter "cache.result.misses"
let m_inserts = M.counter "cache.result.inserts"
let m_bytes = M.counter "cache.result.bytes"
let m_recovered = M.counter "cache.store.recovered"
let m_dropped = M.counter "cache.store.dropped"

type entry =
  { key : string
  ; digest_a : string
  ; digest_b : string
  ; strategy : string
  ; equivalent : bool
  ; exactly_equal : bool
  ; transformed_qubits : int
  ; peak_nodes : int
  ; t_transform : float
  ; t_check : float
  }

type sink =
  { dir : string
  ; segment_bytes : int
  ; mutable seg : int  (** index of the segment currently appended to *)
  ; mutable oc : out_channel
  ; mutable written : int  (** bytes in the current segment *)
  }

type t =
  { index : (string, entry) Hashtbl.t  (** guarded by [lock] *)
  ; lock : Mutex.t  (** serializes every index access and append *)
  ; sink : sink option
  ; mutable recovered : int
  ; mutable dropped : int
  }

let schema = "qcec-cache/v1"

let entry_to_json e =
  J.Obj
    [ ("schema", J.String schema)
    ; ("key", J.String e.key)
    ; ("digest_a", J.String e.digest_a)
    ; ("digest_b", J.String e.digest_b)
    ; ("strategy", J.String e.strategy)
    ; ("equivalent", J.Bool e.equivalent)
    ; ("exactly_equal", J.Bool e.exactly_equal)
    ; ("transformed_qubits", J.Int e.transformed_qubits)
    ; ("peak_nodes", J.Int e.peak_nodes)
    ; ("t_transform", J.Float e.t_transform)
    ; ("t_check", J.Float e.t_check)
    ]

let entry_of_json j =
  let str k =
    match J.member k j with
    | Some (J.String s) -> Ok s
    | _ -> Error (Fmt.str "missing or non-string %S" k)
  in
  let boolean k =
    match J.member k j with
    | Some (J.Bool b) -> Ok b
    | _ -> Error (Fmt.str "missing or non-bool %S" k)
  in
  let int k =
    match J.member k j with
    | Some (J.Int n) -> Ok n
    | _ -> Error (Fmt.str "missing or non-int %S" k)
  in
  let num k =
    match J.member k j with
    | Some (J.Float f) -> Ok f
    | Some (J.Int n) -> Ok (float_of_int n)
    | _ -> Error (Fmt.str "missing or non-number %S" k)
  in
  let ( let* ) = Result.bind in
  let* s = str "schema" in
  if s <> schema then Error (Fmt.str "unsupported schema %S" s)
  else
    let* key = str "key" in
    let* digest_a = str "digest_a" in
    let* digest_b = str "digest_b" in
    let* strategy = str "strategy" in
    let* equivalent = boolean "equivalent" in
    let* exactly_equal = boolean "exactly_equal" in
    let* transformed_qubits = int "transformed_qubits" in
    let* peak_nodes = int "peak_nodes" in
    let* t_transform = num "t_transform" in
    let* t_check = num "t_check" in
    Ok
      { key
      ; digest_a
      ; digest_b
      ; strategy
      ; equivalent
      ; exactly_equal
      ; transformed_qubits
      ; peak_nodes
      ; t_transform
      ; t_check
      }

let seg_name i = Printf.sprintf "seg-%05d.jsonl" i

let seg_index name =
  (* seg-NNNNN.jsonl *)
  if String.length name = 15
     && String.sub name 0 4 = "seg-"
     && String.sub name 9 6 = ".jsonl"
  then int_of_string_opt (String.sub name 4 5)
  else None

let segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun n ->
         Option.map (fun i -> (i, Filename.concat dir n)) (seg_index n))
  |> List.sort compare

(* Replay one segment into [index].  A line that fails to parse — torn by
   a crash or corrupted on disk — is dropped on its own; every other line
   is kept. *)
let replay index path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let kept = ref 0 and torn = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Option.bind (J.of_string_opt line) (fun j ->
                       Result.to_option (entry_of_json j))
             with
             | Some e ->
               Hashtbl.replace index e.key e;
               incr kept
             | None -> incr torn
         done
       with End_of_file -> ());
      (!kept, !torn))

let in_memory () =
  { index = Hashtbl.create 16
  ; lock = Mutex.create ()
  ; sink = None
  ; recovered = 0
  ; dropped = 0
  }

let open_dir ?(segment_bytes = 8 * 1024 * 1024) dir =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then
      failwith (Fmt.str "%s exists and is not a directory" dir);
    let t =
      { (in_memory ()) with
        sink =
          Some { dir; segment_bytes; seg = 0; oc = stdout; written = 0 }
      }
    in
    let segs = segments dir in
    Obs.Span.with_ "cache.load" (fun () ->
        List.iter
          (fun (_, path) ->
            let kept, torn = replay t.index path in
            t.recovered <- t.recovered + kept;
            t.dropped <- t.dropped + torn)
          segs);
    M.add m_recovered t.recovered;
    M.add m_dropped t.dropped;
    let sink = Option.get t.sink in
    let seg = match List.rev segs with (i, _) :: _ -> i | [] -> 0 in
    let path = Filename.concat dir (seg_name seg) in
    sink.seg <- seg;
    (* a crash can leave the segment without its final newline; terminate
       the torn line now so the next append starts a fresh record instead
       of gluing itself to the fragment *)
    let torn =
      Sys.file_exists path
      && (let ic = open_in_bin path in
          let len = in_channel_length ic in
          let torn =
            len > 0
            &&
            (seek_in ic (len - 1);
             input_char ic <> '\n')
          in
          close_in_noerr ic;
          torn)
    in
    sink.oc <- open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path;
    if torn then (
      output_char sink.oc '\n';
      flush sink.oc);
    sink.written <- out_channel_length sink.oc;
    Ok t
  with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg

let rotate sink =
  close_out_noerr sink.oc;
  sink.seg <- sink.seg + 1;
  sink.oc <-
    open_out_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644
      (Filename.concat sink.dir (seg_name sink.seg));
  sink.written <- 0

let insert t e =
  Mutex.protect t.lock (fun () ->
      (match t.sink with
       | None -> ()
       | Some sink ->
         if sink.written >= sink.segment_bytes then rotate sink;
         (* one whole line per record, flushed before the index update:
            a reader never sees an entry the disk does not hold *)
         let line = J.to_string (entry_to_json e) ^ "\n" in
         output_string sink.oc line;
         flush sink.oc;
         sink.written <- sink.written + String.length line;
         M.add m_bytes (String.length line));
      Hashtbl.replace t.index e.key e;
      M.incr m_inserts)

let lookup t key =
  let r = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.index key) in
  M.incr (if Option.is_some r then m_hits else m_misses);
  r

let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.index)
let recovered t = t.recovered
let dropped t = t.dropped
let dir t = Option.map (fun s -> s.dir) t.sink
let close t = match t.sink with None -> () | Some s -> close_out_noerr s.oc
