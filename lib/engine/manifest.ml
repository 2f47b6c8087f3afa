module Json = Obs.Json

type defaults =
  { strategy : Qcec.Strategy.t option
  ; auto_scheme : bool
  ; timeout : float option
  ; retries : int
  ; transform : bool
  ; cache : bool
  ; portfolio : int option
  }

let no_defaults =
  { strategy = None; auto_scheme = false; timeout = None; retries = 0
  ; transform = true; cache = true; portfolio = None }

type t =
  { seed : int option
  ; cache_dir : string option
  ; jobs : Job.spec list
  }

let schema = "qcec-manifest/v1"

let ( let* ) = Result.bind

(* Collect [Ok]s or return the first [Error]. *)
let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] l

let job_seed ~manifest_seed ~index =
  match manifest_seed with None -> None | Some s -> Some (s + index)

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Fmt.str "manifest: field %S must be a string" name)
  | None -> Ok None

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Fmt.str "manifest: field %S must be an integer" name)
  | None -> Ok None

let num_field name j =
  match Json.member name j with
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Fmt.str "manifest: field %S must be a number" name)
  | None -> Ok None

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Fmt.str "manifest: field %S must be a boolean" name)
  | None -> Ok None

(* A portfolio width of 1 is legal (a degenerate race) but almost always a
   typo for "no portfolio"; the manifest insists on >= 2 to keep intent
   explicit, while 0 turns a defaulted portfolio off per job. *)
let portfolio_field name j =
  let* w = int_field name j in
  match w with
  | None -> Ok None
  | Some 0 -> Ok (Some 0)
  | Some w when w >= 2 -> Ok (Some w)
  | Some w ->
    Error
      (Fmt.str
         "manifest: field %S must be a width >= 2 (or 0 to disable), got %d"
         name w)

let strategy_field name j =
  let* s = str_field name j in
  match s with
  | None -> Ok None
  | Some s ->
    (match Qcec.Strategy.of_string s with
     | Ok st -> Ok (Some st)
     | Error e -> Error (Fmt.str "manifest: %s" e))

(* ["scheme"] selects the application scheme: ["auto"] routes each job
   through the analysis passes at run time; any other value is a strategy
   synonym (so ["scheme": "lookahead"] and ["strategy": "lookahead"] are
   the same pin). *)
let scheme_field name j =
  let* s = str_field name j in
  match s with
  | None -> Ok None
  | Some "auto" -> Ok (Some `Auto)
  | Some s ->
    (match Qcec.Strategy.of_string s with
     | Ok st -> Ok (Some (`Fixed st))
     | Error e -> Error (Fmt.str "manifest: %s" e))

let perm_field j =
  match Json.member "perm" j with
  | None -> Ok None
  | Some (Json.List l) ->
    let* ints =
      map_result
        (function
          | Json.Int i -> Ok i
          | _ -> Error "manifest: \"perm\" must be a list of integers")
        l
    in
    let p = Array.of_list ints in
    if Circuit.Circ.is_permutation p then Ok (Some p)
    else
      Error
        (Fmt.str "manifest: \"perm\" must be a permutation of 0..%d"
           (Array.length p - 1))
  | Some _ -> Error "manifest: \"perm\" must be a list of integers"

(* The fields a job may override, each falling back to [defaults]: a
   job object and the ["defaults"] block (over [no_defaults]) both read
   them here. *)
let settings_of_json ~defaults j =
  let* strategy = strategy_field "strategy" j in
  let* scheme = scheme_field "scheme" j in
  let* timeout = num_field "timeout" j in
  let* retries = int_field "retries" j in
  let* transform = bool_field "transform" j in
  let* cache = bool_field "cache" j in
  let* portfolio = portfolio_field "portfolio" j in
  let strategy, auto_scheme =
    match scheme with
    | Some `Auto -> (None, true)
    | Some (`Fixed st) -> (Some st, false)
    | None ->
      (match strategy with
       | Some _ as s -> (s, false)
       | None -> (defaults.strategy, defaults.auto_scheme))
  in
  Ok
    { strategy
    ; auto_scheme
    ; timeout = (match timeout with Some _ as t -> t | None -> defaults.timeout)
    ; retries = Option.value retries ~default:defaults.retries
    ; transform = Option.value transform ~default:defaults.transform
    ; cache = Option.value cache ~default:defaults.cache
    ; portfolio =
        (match portfolio with
         | Some 0 -> None
         | Some _ as p -> p
         | None -> defaults.portfolio)
    }

let defaults_of_json j =
  match Json.member "defaults" j with
  | None -> Ok no_defaults
  | Some d -> settings_of_json ~defaults:no_defaults d

(* Paths in a manifest are relative to the manifest file, so a manifest can
   sit next to its circuits and be invoked from anywhere. *)
let resolve ~dir path =
  if Filename.is_relative path then Filename.concat dir path else path

(* The fields of one job object, compiled onto a source and a seed: the
   manifest's jobs and the daemon's inline submissions both go through
   here. *)
let compile_job ?(defaults = no_defaults) ~index ~seed source j =
  let* label = str_field "label" j in
  let* perm = perm_field j in
  let* s = settings_of_json ~defaults j in
  Ok
    { Job.index
    ; label = Option.value label ~default:(Job.default_label source)
    ; source
    ; strategy = s.strategy
    ; auto_scheme = s.auto_scheme
    ; perm
    ; transform = s.transform
    ; timeout = s.timeout
    ; retries = s.retries
    ; seed
    ; cache = s.cache
    ; portfolio = s.portfolio
    }

(* A job with ["skip": true] compiles to [None]: it is dropped from the
   batch while the remaining jobs keep their manifest indices (and hence
   their derived seeds). *)
let job_of_json ~dir ~defaults ~manifest_seed ~index j =
  let* skip = bool_field "skip" j in
  if Option.value skip ~default:false then Ok None
  else
    let path name =
      match Json.member name j with
      | Some (Json.String s) -> Ok (resolve ~dir s)
      | _ -> Error (Fmt.str "manifest: job %d: missing string field %S" index name)
    in
    let* file_a = path "a" in
    let* file_b = path "b" in
    let* spec =
      compile_job ~defaults ~index ~seed:(job_seed ~manifest_seed ~index)
        (Job.Files { file_a; file_b }) j
    in
    Ok (Some spec)

let of_json ?(dir = Filename.current_dir_name) j =
  let* s =
    match Json.member "schema" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "manifest: missing string field \"schema\""
  in
  let* () =
    if s = schema then Ok ()
    else Error (Fmt.str "manifest: unexpected schema %S (want %S)" s schema)
  in
  let* manifest_seed = int_field "seed" j in
  let* cache_dir = str_field "cache_dir" j in
  let cache_dir = Option.map (resolve ~dir) cache_dir in
  let* defaults = defaults_of_json j in
  let* jobs_json =
    match Json.member "jobs" j with
    | Some (Json.List l) -> Ok l
    | _ -> Error "manifest: missing list field \"jobs\""
  in
  let* jobs =
    map_result
      (fun (index, j) -> job_of_json ~dir ~defaults ~manifest_seed ~index j)
      (List.mapi (fun i j -> (i, j)) jobs_json)
  in
  Ok { seed = manifest_seed; cache_dir; jobs = List.filter_map Fun.id jobs }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Fmt.str "manifest: %s" msg)
  | contents ->
    (match Json.of_string contents with
     | exception Json.Parse_error msg -> Error (Fmt.str "manifest: %s: %s" path msg)
     | j -> of_json ~dir:(Filename.dirname path) j)

let pair_files paths =
  let rec pair acc = function
    | [] -> Ok (List.rev acc)
    | [ odd ] -> Error (Fmt.str "odd number of circuit files (no partner for %s)" odd)
    | a :: b :: rest -> pair ((a, b) :: acc) rest
  in
  pair [] paths

let of_pairs ?seed ?(defaults = no_defaults) pairs =
  let jobs =
    List.mapi
      (fun index (a, b) ->
        Job.files ?strategy:defaults.strategy ~auto_scheme:defaults.auto_scheme
          ?timeout:defaults.timeout
          ~retries:defaults.retries ~transform:defaults.transform
          ~cache:defaults.cache ?portfolio:defaults.portfolio
          ?seed:(job_seed ~manifest_seed:seed ~index) ~index a b)
      pairs
  in
  { seed; cache_dir = None; jobs }
