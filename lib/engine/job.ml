module Circ = Circuit.Circ
module Json = Obs.Json

type source =
  | Files of
      { file_a : string
      ; file_b : string
      }
  | Circuits of
      { a : Circ.t
      ; b : Circ.t
      }

type spec =
  { index : int
  ; label : string
  ; source : source
  ; strategy : Qcec.Strategy.t option
  ; auto_scheme : bool
      (* when [strategy] is [None]: run the analysis passes on the parsed
         circuits and let the cost profiles pick the application scheme *)
  ; perm : int array option
  ; transform : bool
  ; timeout : float option
  ; retries : int
  ; seed : int option
  ; cache : bool
  ; portfolio : int option
  }

let default_label = function
  | Files { file_a; file_b } ->
    Filename.basename file_a ^ " vs " ^ Filename.basename file_b
  | Circuits { a; b } -> a.Circ.name ^ " vs " ^ b.Circ.name

let files ?label ?strategy ?(auto_scheme = false) ?perm ?(transform = true)
    ?timeout ?(retries = 0) ?seed ?(cache = true) ?portfolio ~index file_a file_b =
  let source = Files { file_a; file_b } in
  let label = Option.value label ~default:(default_label source) in
  { index; label; source; strategy; auto_scheme; perm; transform; timeout
  ; retries; seed; cache; portfolio }

let circuits ?label ?strategy ?(auto_scheme = false) ?perm ?(transform = true)
    ?timeout ?(retries = 0) ?seed ?(cache = true) ?portfolio ~index a b =
  let source = Circuits { a; b } in
  let label = Option.value label ~default:(default_label source) in
  { index; label; source; strategy; auto_scheme; perm; transform; timeout
  ; retries; seed; cache; portfolio }

type verdict =
  { equivalent : bool
  ; exactly_equal : bool
  ; strategy : string
  ; t_transform : float
  ; t_check : float
  ; transformed_qubits : int
  ; peak_nodes : int
  ; cached : bool
  }

type failure_class =
  | Timeout
  | Lint_error
  | Parse_error
  | Non_unitary
  | Rejected
  | Node_limit
  | Cancelled
  | Crash

type outcome =
  | Verdict of verdict
  | Failed of
      { reason : failure_class
      ; message : string
      }

type result =
  { index : int
  ; label : string
  ; files_checked : (string * string) option
  ; outcome : outcome
  ; duration : float
  ; attempts : int
  ; worker : int
  ; seed : int option
  ; metrics : Obs.Metrics.snapshot
  }

let failure_class_string = function
  | Timeout -> "timeout"
  | Lint_error -> "lint_error"
  | Parse_error -> "parse_error"
  | Non_unitary -> "non_unitary"
  | Rejected -> "rejected"
  | Node_limit -> "node_limit"
  | Cancelled -> "cancelled"
  | Crash -> "crash"

let failure_class_of_string = function
  | "timeout" -> Some Timeout
  | "lint_error" -> Some Lint_error
  | "parse_error" -> Some Parse_error
  | "non_unitary" -> Some Non_unitary
  | "rejected" -> Some Rejected
  | "node_limit" -> Some Node_limit
  | "cancelled" -> Some Cancelled
  | "crash" -> Some Crash
  | _ -> None

let exit_class = function
  | Verdict { cached = true; _ } -> "cached"
  | Verdict { equivalent = true; _ } -> "equivalent"
  | Verdict { equivalent = false; _ } -> "not_equivalent"
  | Failed { reason; _ } -> failure_class_string reason

let succeeded r = match r.outcome with Verdict { equivalent; _ } -> equivalent | _ -> false

(* Scheduling-independent equality: timings vary run to run (and failure
   messages may embed them); the verdict itself must not.  [cached] is
   ignored too — whether a verdict came from the store depends on what ran
   before, not on what the answer is (a warm run must agree with its cold
   run verdict for verdict). *)
let same_outcome a b =
  match (a, b) with
  | Verdict va, Verdict vb ->
    va.equivalent = vb.equivalent
    && va.exactly_equal = vb.exactly_equal
    && va.strategy = vb.strategy
  | Failed { reason = ra; _ }, Failed { reason = rb; _ } -> ra = rb
  | Verdict _, Failed _ | Failed _, Verdict _ -> false

let pp_result ppf r =
  match r.outcome with
  | Verdict v ->
    Fmt.pf ppf "[%d] %s: %s (%s, t_ver = %.4fs, %d peak nodes)" r.index r.label
      (if v.equivalent then "equivalent" else "NOT equivalent")
      v.strategy v.t_check v.peak_nodes
  | Failed { reason; message } ->
    Fmt.pf ppf "[%d] %s: %s (%s)" r.index r.label (failure_class_string reason) message

(* -- qcec-result/v1 ---------------------------------------------------- *)

let schema = "qcec-result/v1"

let to_json r =
  let opt f = function None -> Json.Null | Some v -> f v in
  let verdict_fields =
    match r.outcome with
    | Verdict v ->
      [ ("equivalent", Json.Bool v.equivalent)
      ; ("exactly_equal", Json.Bool v.exactly_equal)
      ; ("strategy", Json.String v.strategy)
      ; ("t_transform", Json.Float v.t_transform)
      ; ("t_check", Json.Float v.t_check)
      ; ("transformed_qubits", Json.Int v.transformed_qubits)
      ; ("peak_nodes", Json.Int v.peak_nodes)
      ; ("cached", Json.Bool v.cached)
      ; ("error", Json.Null)
      ]
    | Failed { message; _ } -> [ ("error", Json.String message) ]
  in
  Json.Obj
    ([ ("schema", Json.String schema)
     ; ("index", Json.Int r.index)
     ; ("label", Json.String r.label)
     ; ( "files"
       , opt (fun (a, b) -> Json.List [ Json.String a; Json.String b ]) r.files_checked )
     ; ("exit", Json.String (exit_class r.outcome))
     ]
    @ verdict_fields
    @ [ ("duration_seconds", Json.Float r.duration)
      ; ("attempts", Json.Int r.attempts)
      ; ("worker", Json.Int r.worker)
      ; ("seed", opt (fun s -> Json.Int s) r.seed)
      ; ("metrics", Obs.Metrics.to_json r.metrics)
      ])

let of_json j =
  let ( let* ) = Result.bind in
  let field name = Json.member name j in
  let str name =
    match field name with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Fmt.str "result: missing string field %S" name)
  in
  let int name =
    match field name with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Fmt.str "result: missing int field %S" name)
  in
  let num name =
    match field name with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int i) -> Ok (float_of_int i)
    | _ -> Error (Fmt.str "result: missing number field %S" name)
  in
  let bool name =
    match field name with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (Fmt.str "result: missing bool field %S" name)
  in
  let* s = str "schema" in
  let* () = if s = schema then Ok () else Error (Fmt.str "unexpected schema %S" s) in
  let* index = int "index" in
  let* label = str "label" in
  let* files_checked =
    match field "files" with
    | Some (Json.List [ Json.String a; Json.String b ]) -> Ok (Some (a, b))
    | Some Json.Null | None -> Ok None
    | _ -> Error "result: malformed \"files\""
  in
  let* exit = str "exit" in
  let* outcome =
    match exit with
    | "equivalent" | "not_equivalent" | "cached" ->
      let* equivalent = bool "equivalent" in
      let* exactly_equal = bool "exactly_equal" in
      let* strategy = str "strategy" in
      let* t_transform = num "t_transform" in
      let* t_check = num "t_check" in
      let* transformed_qubits = int "transformed_qubits" in
      let* peak_nodes = int "peak_nodes" in
      (* absent in pre-cache result files *)
      let* cached =
        match field "cached" with
        | Some (Json.Bool b) -> Ok b
        | None -> Ok (exit = "cached")
        | _ -> Error "result: malformed \"cached\""
      in
      Ok
        (Verdict
           { equivalent; exactly_equal; strategy; t_transform; t_check
           ; transformed_qubits; peak_nodes; cached })
    | other ->
      (match failure_class_of_string other with
       | None -> Error (Fmt.str "result: unknown exit class %S" other)
       | Some reason ->
         let* message = str "error" in
         Ok (Failed { reason; message }))
  in
  let* duration = num "duration_seconds" in
  let* attempts = int "attempts" in
  let* worker = int "worker" in
  let* seed =
    match field "seed" with
    | Some (Json.Int s) -> Ok (Some s)
    | Some Json.Null | None -> Ok None
    | _ -> Error "result: malformed \"seed\""
  in
  let* metrics =
    match field "metrics" with
    | Some (Json.Obj kvs) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match v with
          | Json.Int i -> Ok ((k, i) :: acc)
          | _ -> Error (Fmt.str "result: non-integer metric %S" k))
        (Ok []) kvs
      |> Result.map List.rev
    | Some Json.Null | None -> Ok []
    | _ -> Error "result: malformed \"metrics\""
  in
  Ok
    { index; label; files_checked; outcome; duration; attempts; worker; seed
    ; metrics }

let of_string line =
  match Json.of_string_opt line with
  | None -> Error "result: not valid JSON"
  | Some j -> of_json j
