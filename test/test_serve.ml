(* Verification-service tests: the factored JSON module's control-character
   escaping, HTTP/1.1 request parsing (content-length, chunked, oversized and
   malformed bodies), SSE framing round-trips, token-bucket accounting, and
   end-to-end daemon behaviour over a real loopback socket — submit/poll/
   stream, verdict parity with a direct engine run, warm cache hits with zero
   new DD packages, admission-queue 429s, cancellation and graceful drain. *)

module Json = Qcec_json
module Job = Engine.Job
module Pool = Engine.Pool
module Http = Serve.Http
module Sse = Serve.Sse
module Server = Serve.Server

(* -- shared JSON module: control-character escaping ------------------- *)

let test_json_control_chars () =
  for c = 0 to 31 do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    let encoded = Json.to_string (Json.String s) in
    String.iter
      (fun ch -> Alcotest.(check bool) "no raw control byte in output" false (Char.code ch < 32))
      encoded;
    Alcotest.(check bool) "control char round-trips" true
      (Json.equal (Json.String s) (Json.of_string encoded))
  done;
  Alcotest.(check string) "named escapes" "\"\\u0001\\n\\t\\\\\""
    (Json.to_string (Json.String "\x01\n\t\\"))

let test_json_shared_with_obs () =
  (* lib/obs re-exports the factored module: the types are one and the
     same, so values cross layer boundaries without conversion *)
  let v = Json.Obj [ ("x", Json.Int 1) ] in
  Alcotest.(check string) "Obs.Json is Qcec_json" (Obs.Json.to_string v) (Json.to_string v)

(* -- HTTP request parsing --------------------------------------------- *)

let feed raw =
  let r, w = Unix.pipe () in
  let n = Unix.write_substring w raw 0 (String.length raw) in
  assert (n = String.length raw);
  Unix.close w;
  let reader = Http.reader r in
  Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> Http.read_request ~max_body:4096 reader)

let test_http_simple () =
  match feed "GET /v1/jobs?after=3&tag=a%20b HTTP/1.1\r\nHost: x\r\nX-Th: 7\r\n\r\n" with
  | None -> Alcotest.fail "expected a request"
  | Some req ->
    Alcotest.(check string) "method" "GET" req.Http.meth;
    Alcotest.(check string) "path" "/v1/jobs" req.Http.path;
    Alcotest.(check (option string)) "query decodes" (Some "a b")
      (List.assoc_opt "tag" req.Http.query);
    Alcotest.(check (option string)) "headers lowercase" (Some "7") (Http.header req "x-th");
    Alcotest.(check string) "no body" "" req.Http.body

let test_http_body () =
  match feed "POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world" with
  | None -> Alcotest.fail "expected a request"
  | Some req -> Alcotest.(check string) "body" "hello world" req.Http.body

let test_http_chunked () =
  let raw =
    "POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    ^ "5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nTrailer: x\r\n\r\n"
  in
  match feed raw with
  | None -> Alcotest.fail "expected a request"
  | Some req -> Alcotest.(check string) "chunked body decodes" "hello world" req.Http.body

let test_http_oversized () =
  let raw =
    Printf.sprintf "POST /v1/jobs HTTP/1.1\r\nContent-Length: 8192\r\n\r\n%s"
      (String.make 8192 'x')
  in
  Alcotest.check_raises "oversized body" (Http.Payload_too_large 4096) (fun () ->
    ignore (feed raw))

let test_http_malformed () =
  let is_bad raw =
    match feed raw with
    | exception Http.Bad_request _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage request line" true (is_bad "NOT-HTTP\r\n\r\n");
  Alcotest.(check bool) "bad version" true (is_bad "GET / SPDY/9\r\n\r\n");
  Alcotest.(check bool) "bad content-length" true
    (is_bad "GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n");
  Alcotest.(check bool) "bad chunk size" true
    (is_bad "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  Alcotest.(check bool) "clean EOF is not an error" true (feed "" = None)

(* -- SSE framing ------------------------------------------------------- *)

let test_sse_roundtrip () =
  let events =
    [ { Sse.id = Some 1; event = Some "queued"; data = "{\"a\":1}" }
    ; { Sse.id = Some 2; event = Some "progress"; data = "line1\nline2" }
    ; { Sse.id = None; event = None; data = "bare" }
    ]
  in
  let stream =
    String.concat "" (List.map Sse.encode events) ^ Sse.comment "keep-alive"
  in
  let decoded = Sse.decode stream in
  Alcotest.(check int) "all frames decode" (List.length events) (List.length decoded);
  List.iter2
    (fun (e : Sse.event) (d : Sse.event) ->
      Alcotest.(check (option int)) "id" e.Sse.id d.Sse.id;
      Alcotest.(check (option string)) "event" e.Sse.event d.Sse.event;
      Alcotest.(check string) "data" e.Sse.data d.Sse.data)
    events decoded

(* -- token bucket ------------------------------------------------------ *)

let test_limiter () =
  let l = Serve.Limiter.create ~rate:1.0 ~burst:2 in
  let ok r = match r with Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "burst 1" true (ok (Serve.Limiter.check l ~key:"a" ~now:0.0));
  Alcotest.(check bool) "burst 2" true (ok (Serve.Limiter.check l ~key:"a" ~now:0.0));
  (match Serve.Limiter.check l ~key:"a" ~now:0.0 with
   | Ok () -> Alcotest.fail "third immediate submission must be limited"
   | Error wait -> Alcotest.(check bool) "retry-after is sane" true (wait > 0.0 && wait <= 1.0));
  Alcotest.(check bool) "other clients unaffected" true
    (ok (Serve.Limiter.check l ~key:"b" ~now:0.0));
  Alcotest.(check bool) "token refills with time" true
    (ok (Serve.Limiter.check l ~key:"a" ~now:1.5));
  let off = Serve.Limiter.create ~rate:0.0 ~burst:1 in
  Alcotest.(check bool) "rate 0 disables" true
    (List.for_all (fun _ -> ok (Serve.Limiter.check off ~key:"a" ~now:0.0)) [ 1; 2; 3; 4 ])

(* -- loopback HTTP client --------------------------------------------- *)

type reply =
  { status : int
  ; rheaders : (string * string) list
  ; rbody : string
  }

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let parse_reply raw =
  match String.index_opt raw '\r' with
  | None -> Alcotest.fail ("unparseable response: " ^ raw)
  | Some _ ->
    let head, body =
      let marker = "\r\n\r\n" in
      let rec find i =
        if i + 4 > String.length raw then Alcotest.fail "no header terminator"
        else if String.sub raw i 4 = marker then i
        else find (i + 1)
      in
      let i = find 0 in
      (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
    in
    let lines = String.split_on_char '\n' head in
    let status_line = List.hd lines in
    let status =
      match String.split_on_char ' ' status_line with
      | _ :: code :: _ -> int_of_string code
      | _ -> Alcotest.fail ("bad status line: " ^ status_line)
    in
    let rheaders =
      List.filter_map
        (fun l ->
          match String.index_opt l ':' with
          | None -> None
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i)
              , String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
        (List.tl lines)
    in
    { status; rheaders; rbody = body }

let request ~port ~meth ~path ?(headers = []) ?body () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Buffer.create 512 in
      Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n" meth path);
      List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) headers;
      (match body with
       | Some body ->
         Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length body));
         Buffer.add_string b body
       | None -> Buffer.add_string b "\r\n");
      Http.write_all fd (Buffer.contents b);
      parse_reply (read_all fd))

let get ~port path = request ~port ~meth:"GET" ~path ()
let post ~port path body = request ~port ~meth:"POST" ~path ~body ()

let json_of reply =
  match Json.of_string_opt reply.rbody with
  | Some j -> j
  | None -> Alcotest.fail ("response is not JSON: " ^ reply.rbody)

let str_member name j =
  match Json.member name j with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "missing string field %S in %s" name (Json.to_string j))

let error_code reply =
  match Json.member "error" (json_of reply) with
  | Some err -> str_member "code" err
  | None -> Alcotest.fail ("expected an error document: " ^ reply.rbody)

let job_id reply = str_member "id" (json_of reply)

let rec poll_done ~port id deadline =
  if Unix.gettimeofday () > deadline then Alcotest.fail ("job did not finish: " ^ id);
  let reply = get ~port (Printf.sprintf "/v1/jobs/%s" id) in
  let j = json_of reply in
  if str_member "state" j = "done" then
    match Json.member "result" j with
    | Some r -> (
      match Job.of_json r with
      | Ok result -> result
      | Error e -> Alcotest.fail ("unparseable embedded result: " ^ e))
    | None -> Alcotest.fail "done without result"
  else begin
    Thread.delay 0.05;
    poll_done ~port id deadline
  end

let wait_done ~port reply = poll_done ~port (job_id reply) (Unix.gettimeofday () +. 60.0)

(* -- end-to-end over loopback ----------------------------------------- *)

let qasm c = Circuit.Qasm_printer.to_string c

let qft_pair n =
  let c = Algorithms.Qft.static n in
  (qasm c, qasm c)

let inline_job ?(extra = []) ?shots n =
  let a, b = qft_pair n in
  let fields =
    [ ("a", Json.String a); ("b", Json.String b) ]
    @ (match shots with
       | Some s -> [ ("strategy", Json.String (Printf.sprintf "simulation:%d" s)) ]
       | None -> [])
    @ extra
  in
  Json.to_string (Json.Obj fields)

let with_server cfg f =
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let test_e2e_submit_poll_verdict () =
  let cache = Cache_store.Store.in_memory () in
  with_server
    { Server.default_config with Server.workers = 2; cache = Some cache; heartbeat_interval = 0.01 }
    (fun server ->
      let port = Server.port server in
      (* health and the single-sourced version *)
      let health = json_of (get ~port "/v1/health") in
      Alcotest.(check string) "health schema" "qcec-serve/v1" (str_member "schema" health);
      Alcotest.(check string) "health status" "ok" (str_member "status" health);
      Alcotest.(check string) "version is single-sourced" Qcec.Version.string
        (str_member "version" health);
      (* structured 4xx for the unroutable and the malformed *)
      Alcotest.(check int) "unknown route is 404" 404 (get ~port "/nope").status;
      Alcotest.(check string) "404 is structured" "not_found" (error_code (get ~port "/nope"));
      Alcotest.(check string) "405 on bad method" "method_not_allowed"
        (error_code (request ~port ~meth:"PUT" ~path:"/v1/jobs" ~body:"{}" ()));
      Alcotest.(check string) "non-JSON body" "invalid_json"
        (error_code (post ~port "/v1/jobs" "{not json"));
      Alcotest.(check string) "wrong field type" "invalid_request"
        (error_code (post ~port "/v1/jobs" "{\"a\": 42, \"b\": \"x\"}"));
      Alcotest.(check string) "unparsable circuit" "parse_error"
        (error_code (post ~port "/v1/jobs" "{\"a\": \"not qasm\", \"b\": \"also not\"}"));
      (* inline fields compile through the manifest's job compiler: a bad
         field is invalid_request with the manifest's message, naming it *)
      List.iter
        (fun (field, value) ->
          let reply = post ~port "/v1/jobs" (inline_job 3 ~extra:[ (field, value) ]) in
          Alcotest.(check int) (field ^ " error is 400") 400 reply.status;
          Alcotest.(check string) (field ^ " error code") "invalid_request" (error_code reply);
          let message =
            match Json.member "error" (json_of reply) with
            | Some err -> str_member "message" err
            | None -> ""
          in
          Alcotest.(check bool)
            (Printf.sprintf "message %S names %s" message field)
            true
            (Util.contains ~sub:field message))
        [ ("portfolio", Json.Int 1)
        ; ("retries", Json.String "x")
        ];
      Alcotest.(check string) "missing job is 404" "not_found"
        (error_code (get ~port "/v1/jobs/job-999999"));
      (* submit, poll to verdict *)
      let accepted = post ~port "/v1/jobs" (inline_job 6) in
      Alcotest.(check int) "submission is 202" 202 accepted.status;
      let result = wait_done ~port accepted in
      Alcotest.(check string) "verdict" "equivalent" (Job.exit_class result.Job.outcome);
      (* parity with a direct engine run of the same pair; the daemon
         also parses a dynamic body and transforms it itself *)
      let parity name (a, b) result =
        let direct =
          Pool.run
            { Pool.default_config with Pool.workers = 1 }
            [ Job.circuits ~index:0
                (Circuit.Qasm3_parser.parse_any ~name:"a" a)
                (Circuit.Qasm3_parser.parse_any ~name:"b" b)
            ]
        in
        let direct = List.hd direct.Pool.results in
        Alcotest.(check bool) (name ^ ": daemon verdict matches qcec check") true
          (Job.same_outcome direct.Job.outcome result.Job.outcome)
      in
      parity "static QFT-6" (qft_pair 6) result;
      let dynamic = (qasm (Algorithms.Qft.dynamic 7), qasm (Algorithms.Qft.static 7)) in
      let dynamic_result =
        wait_done ~port
          (post ~port "/v1/jobs"
             (Json.to_string
                (Json.Obj [ ("a", Json.String (fst dynamic)); ("b", Json.String (snd dynamic)) ])))
      in
      Alcotest.(check string) "dynamic verdict" "equivalent"
        (Job.exit_class dynamic_result.Job.outcome);
      parity "dynamic QFT-7" dynamic dynamic_result;
      (* warm resubmission: cached verdict, zero new DD packages *)
      let packages_created () =
        match Json.member "metrics" (json_of (get ~port "/v1/metrics")) with
        | Some m -> (
          match Json.member "dd.pkg.created" m with
          | Some (Json.Int n) -> n
          | _ -> 0)
        | None -> Alcotest.fail "metrics missing"
      in
      let before = packages_created () in
      let warm = wait_done ~port (post ~port "/v1/jobs" (inline_job 6)) in
      (match warm.Job.outcome with
       | Job.Verdict v ->
         Alcotest.(check bool) "warm verdict is served from the store" true v.Job.cached;
         Alcotest.(check string) "warm exit class" "cached" (Job.exit_class warm.Job.outcome)
       | Job.Failed _ -> Alcotest.fail "warm resubmission failed");
      Alcotest.(check int) "warm hit builds zero DD packages" before (packages_created ());
      (* a deliberately-timing-out job classifies as timeout *)
      let slow =
        wait_done ~port
          (post ~port "/v1/jobs" (inline_job 10 ~shots:200000 ~extra:[ ("timeout", Json.Float 0.3) ]))
      in
      (match slow.Job.outcome with
       | Job.Failed { reason = Job.Timeout; _ } -> ()
       | o -> Alcotest.fail ("expected timeout, got " ^ Job.exit_class o));
      (* the job listing knows all of them *)
      match Json.member "jobs" (json_of (get ~port "/v1/jobs")) with
      | Some (Json.List jobs) ->
        Alcotest.(check bool) "listing has all jobs" true (List.length jobs >= 4)
      | _ -> Alcotest.fail "job listing missing")

let test_e2e_sse_stream () =
  with_server
    { Server.default_config with Server.workers = 1; heartbeat_interval = 0.005 }
    (fun server ->
      let port = Server.port server in
      let accepted = post ~port "/v1/jobs" (inline_job 10 ~shots:400) in
      let id = job_id accepted in
      (* the stream replays from the requested position and ends with the
         terminal [done] frame, after which the server closes the socket *)
      let reply = get ~port (Printf.sprintf "/v1/jobs/%s/events" id) in
      Alcotest.(check int) "stream status" 200 reply.status;
      Alcotest.(check (option string)) "stream content type" (Some "text/event-stream")
        (List.assoc_opt "content-type" reply.rheaders);
      let events = Sse.decode reply.rbody in
      let named name = List.filter (fun (e : Sse.event) -> e.Sse.event = Some name) events in
      Alcotest.(check int) "one queued frame" 1 (List.length (named "queued"));
      Alcotest.(check int) "one started frame" 1 (List.length (named "started"));
      Alcotest.(check int) "one done frame" 1 (List.length (named "done"));
      let names = List.filter_map (fun (e : Sse.event) -> e.Sse.event) events in
      Alcotest.(check (option string)) "queued comes first" (Some "queued") (List.nth_opt names 0);
      Alcotest.(check (option string)) "done comes last" (Some "done")
        (List.nth_opt (List.rev names) 0);
      Alcotest.(check bool)
        (Printf.sprintf "at least 3 progress frames (got %d)" (List.length (named "progress")))
        true
        (List.length (named "progress") >= 3);
      (* ids are strictly increasing *)
      let ids = List.filter_map (fun (e : Sse.event) -> e.Sse.id) events in
      Alcotest.(check bool) "event ids increase" true
        (List.for_all2 (fun a b -> a < b) ids (List.tl ids @ [ max_int ]));
      (* progress frames carry the safepoint heartbeat fields *)
      (match named "progress" with
       | p :: _ ->
         let j = Json.of_string p.Sse.data in
         Alcotest.(check string) "phase" "check" (str_member "phase" j);
         Alcotest.(check bool) "live nodes reported" true (Json.member "live_nodes" j <> None)
       | [] -> ());
      (* Last-Event-ID resumption: everything after the first two frames *)
      let resumed =
        request ~port ~meth:"GET"
          ~path:(Printf.sprintf "/v1/jobs/%s/events" id)
          ~headers:[ ("Last-Event-ID", "2") ] ()
      in
      let resumed = Sse.decode resumed.rbody in
      Alcotest.(check bool) "resumed stream skips delivered frames" true
        (List.for_all
           (fun (e : Sse.event) -> match e.Sse.id with Some i -> i > 2 | None -> false)
           resumed))

let test_e2e_backpressure_and_cancel () =
  with_server
    { Server.default_config with
      Server.workers = 1
    ; queue_capacity = 1
    ; heartbeat_interval = 0.01
    }
    (fun server ->
      let port = Server.port server in
      (* occupy the single worker with a job slow enough to straddle the
         whole test (cancelled at the end, so nothing actually waits 30s) *)
      let running = post ~port "/v1/jobs" (inline_job 10 ~shots:30000) in
      Alcotest.(check int) "slow job accepted" 202 running.status;
      let running_id = job_id running in
      let rec wait_running n =
        if n = 0 then Alcotest.fail "job never started";
        let state = str_member "state" (json_of (get ~port ("/v1/jobs/" ^ running_id))) in
        if state <> "running" then begin
          Thread.delay 0.05;
          wait_running (n - 1)
        end
      in
      wait_running 200;
      (* fill the admission queue, then overflow it *)
      let queued = post ~port "/v1/jobs" (inline_job 4) in
      Alcotest.(check int) "queue has room for one" 202 queued.status;
      let overflow = post ~port "/v1/jobs" (inline_job 4) in
      Alcotest.(check int) "overflow is 429" 429 overflow.status;
      Alcotest.(check string) "overflow code" "queue_full" (error_code overflow);
      Alcotest.(check bool) "Retry-After present" true
        (List.mem_assoc "retry-after" overflow.rheaders);
      (* cancel the queued job: it must resolve without running *)
      let queued_id = job_id queued in
      let del id = request ~port ~meth:"DELETE" ~path:("/v1/jobs/" ^ id) () in
      Alcotest.(check int) "cancel queued" 202 (del queued_id).status;
      (* cancel the running job: it unwinds at the next DD safepoint *)
      Alcotest.(check int) "cancel running" 202 (del running_id).status;
      let r_running = poll_done ~port running_id (Unix.gettimeofday () +. 20.0) in
      let r_queued = poll_done ~port queued_id (Unix.gettimeofday () +. 20.0) in
      Alcotest.(check string) "running job cancelled" "cancelled"
        (Job.exit_class r_running.Job.outcome);
      Alcotest.(check string) "queued job cancelled" "cancelled"
        (Job.exit_class r_queued.Job.outcome);
      Alcotest.(check bool) "mid-run cancel is prompt" true (r_running.Job.duration < 15.0);
      Alcotest.(check int) "cancelling a finished job is 409" 409 (del running_id).status;
      (* the server counters: two admissions, one 429, and both cancelled
         jobs completed *)
      let server =
        match Json.member "server" (json_of (get ~port "/v1/metrics")) with
        | Some s -> s
        | None -> Alcotest.fail "metrics carry no server block"
      in
      List.iter
        (fun (name, want) ->
          Alcotest.(check (option int)) ("server " ^ name) (Some want)
            (match Json.member name server with Some (Json.Int n) -> Some n | _ -> None))
        [ ("submitted", 2); ("completed", 2); ("rejected", 1) ])

let test_e2e_rate_limit () =
  with_server
    { Server.default_config with Server.workers = 1; rate = 0.001; burst = 2 }
    (fun server ->
      let port = Server.port server in
      Alcotest.(check int) "first passes" 202 (post ~port "/v1/jobs" (inline_job 3)).status;
      Alcotest.(check int) "second passes" 202 (post ~port "/v1/jobs" (inline_job 3)).status;
      let limited = post ~port "/v1/jobs" (inline_job 3) in
      Alcotest.(check int) "third is 429" 429 limited.status;
      Alcotest.(check string) "limited code" "rate_limited" (error_code limited);
      Alcotest.(check bool) "Retry-After present" true
        (List.mem_assoc "retry-after" limited.rheaders))

let test_e2e_oversized_body () =
  with_server
    { Server.default_config with Server.workers = 1; max_body = 4096 }
    (fun server ->
      let port = Server.port server in
      let reply = post ~port "/v1/jobs" (String.make 8192 'x') in
      Alcotest.(check int) "oversized body is 413" 413 reply.status;
      Alcotest.(check string) "structured 413" "payload_too_large" (error_code reply))

let test_e2e_manifest_and_drain () =
  (* a manifest document with inline file references, then a graceful stop
     with jobs still queued: drain runs them to completion *)
  let dir = Filename.temp_file "qcec_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let a, _ = qft_pair 5 in
  let file name = Filename.concat dir name in
  let write name contents =
    let oc = open_out (file name) in
    output_string oc contents;
    close_out oc
  in
  write "a.qasm" a;
  write "b.qasm" a;
  let manifest =
    Json.Obj
      [ ("schema", Json.String "qcec-manifest/v1")
      ; ( "jobs"
        , Json.List
            [ Json.Obj
                [ ("a", Json.String (file "a.qasm"))
                ; ("b", Json.String (file "b.qasm"))
                ; ("label", Json.String "manifest pair")
                ]
            ] )
      ]
  in
  let store = file "store" in
  let cache =
    match Cache_store.Store.open_dir store with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let server =
    Server.start { Server.default_config with Server.workers = 1; cache = Some cache }
  in
  let port = Server.port server in
  let reply = post ~port "/v1/jobs" (Json.to_string manifest) in
  Alcotest.(check int) "manifest accepted" 202 reply.status;
  (match Json.member "jobs" (json_of reply) with
   | Some (Json.List [ _ ]) -> ()
   | _ -> Alcotest.fail "expected one job back");
  (* stop immediately: a graceful drain runs the queued job to completion,
     which the shared verdict store proves — its insert happened even
     though nobody polled the job *)
  Server.stop server;
  Alcotest.(check bool) "server reports stopped" true (Server.stopping server);
  Alcotest.(check int) "drained job reached the verdict store" 1
    (Cache_store.Store.size cache);
  Cache_store.Store.close cache;
  (match Cache_store.Store.open_dir store with
   | Ok reopened ->
     Alcotest.(check int) "the drained verdict is on disk" 1
       (Cache_store.Store.recovered reopened);
     Cache_store.Store.close reopened
   | Error e -> Alcotest.fail e);
  (* stop is idempotent *)
  Server.stop server

let suite =
  [ Alcotest.test_case "json: control characters escape and round-trip" `Quick
      test_json_control_chars
  ; Alcotest.test_case "json: one module shared across layers" `Quick test_json_shared_with_obs
  ; Alcotest.test_case "http: request line, query, headers" `Quick test_http_simple
  ; Alcotest.test_case "http: content-length body" `Quick test_http_body
  ; Alcotest.test_case "http: chunked body" `Quick test_http_chunked
  ; Alcotest.test_case "http: oversized body is 413" `Quick test_http_oversized
  ; Alcotest.test_case "http: malformed requests are 400" `Quick test_http_malformed
  ; Alcotest.test_case "sse: encode/decode round-trip" `Quick test_sse_roundtrip
  ; Alcotest.test_case "limiter: token-bucket accounting" `Quick test_limiter
  ; Alcotest.test_case "e2e: submit, poll, verdict parity, warm cache" `Slow
      test_e2e_submit_poll_verdict
  ; Alcotest.test_case "e2e: SSE progress stream" `Slow test_e2e_sse_stream
  ; Alcotest.test_case "e2e: backpressure 429 and cancellation" `Slow
      test_e2e_backpressure_and_cancel
  ; Alcotest.test_case "e2e: per-client rate limit" `Quick test_e2e_rate_limit
  ; Alcotest.test_case "e2e: oversized body over the wire" `Quick test_e2e_oversized_body
  ; Alcotest.test_case "e2e: manifest submission and graceful drain" `Slow
      test_e2e_manifest_and_drain
  ]
