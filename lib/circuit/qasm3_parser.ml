open Qasm_lexer
module E = Qasm_parser.Engine

(* One statement, as the list of (operation, source line) pairs it expands
   to.  An enclosing [if]'s condition is distributed over every produced
   op; ops from a braced block keep their own statement's line. *)
let rec parse_statement_ops st : (Op.t * int) list =
  let at = E.line st in
  match E.peek st with
  | IDENT "if" ->
    E.advance st;
    E.expect st LPAREN;
    let bit = E.parse_cbit st in
    let value =
      match E.peek st with
      | EQEQ ->
        E.advance st;
        E.expect_nat st
      | _ -> 1 (* if (c[k]) means "is set" *)
    in
    E.expect st RPAREN;
    let body =
      match E.peek st with
      | LBRACE ->
        E.advance st;
        let rec block acc =
          match E.peek st with
          | RBRACE ->
            E.advance st;
            List.concat (List.rev acc)
          | EOF -> E.fail st "unterminated if block"
          | _ -> block (parse_statement_ops st :: acc)
        in
        block []
      | _ -> parse_statement_ops st
    in
    List.map
      (fun (op, line) -> (Op.Cond { cond = { bits = [ bit ]; value }; op }, line))
      body
  | IDENT "reset" ->
    E.advance st;
    let q = E.parse_qubit st in
    E.expect st SEMICOLON;
    [ (Op.Reset q, at) ]
  | IDENT "barrier" ->
    E.advance st;
    let rec operands acc =
      let q = E.parse_qubit st in
      match E.peek st with
      | COMMA ->
        E.advance st;
        operands (q :: acc)
      | _ ->
        E.expect st SEMICOLON;
        List.rev (q :: acc)
    in
    [ (Op.Barrier (operands []), at) ]
  | IDENT name when E.is_creg st name ->
    (* measurement assignment: c[i] = measure q[j]; *)
    let cbit = E.parse_cbit st in
    E.expect st EQUALS;
    (match E.expect_ident st with
     | "measure" -> ()
     | other -> E.fail st (Fmt.str "expected measure, found %s" other));
    let qubit = E.parse_qubit st in
    E.expect st SEMICOLON;
    [ (Op.Measure { qubit; cbit }, at) ]
  | IDENT _ ->
    let name = E.expect_ident st in
    let args = E.parse_args st in
    let operands =
      let rec loop acc =
        let q = E.parse_qubit st in
        match E.peek st with
        | COMMA ->
          E.advance st;
          loop (q :: acc)
        | _ ->
          E.expect st SEMICOLON;
          List.rev (q :: acc)
      in
      loop []
    in
    List.map (fun op -> (op, at)) (E.resolve_gate st name args operands)
  | t -> E.fail st (Fmt.str "unexpected %a" pp_token t)

let parse_declaration st kind =
  (* [qubit[n] name;] / [bit[n] name;] (size defaults to 1) *)
  E.advance st;
  let size =
    match E.peek st with
    | LBRACKET ->
      E.advance st;
      let n = E.expect_nat st in
      E.expect st RBRACKET;
      n
    | _ -> 1
  in
  let name = E.expect_ident st in
  E.expect st SEMICOLON;
  match kind with
  | `Qubit -> E.declare_qreg st name size
  | `Bit -> E.declare_creg st name size

let parse_top st =
  let rec loop () =
    match E.peek st with
    | EOF -> ()
    | IDENT "OPENQASM" ->
      E.advance st;
      (match E.peek st with
       | NUMBER _ -> E.advance st
       | _ -> E.fail st "expected version number");
      E.expect st SEMICOLON;
      loop ()
    | IDENT "include" ->
      E.advance st;
      (match E.peek st with
       | STRING _ -> E.advance st
       | _ -> E.fail st "expected file name");
      E.expect st SEMICOLON;
      loop ()
    | IDENT "qubit" ->
      parse_declaration st `Qubit;
      loop ()
    | IDENT "bit" ->
      parse_declaration st `Bit;
      loop ()
    | IDENT "gate" ->
      E.parse_gate_definition st;
      loop ()
    | _ ->
      List.iter (fun (op, line) -> E.emit_at st ~line op) (parse_statement_ops st);
      loop ()
  in
  loop ()

let parse_located ?(name = "qasm3") src =
  let st = E.make src in
  (try parse_top st with
   | Lex_error (msg, line) ->
     raise (Qasm_parser.Parse_error ("lexical error: " ^ msg, line)));
  E.finish_located st ~name

let parse ?name src = fst (parse_located ?name src)

let parse_file path =
  parse ~name:(Filename.remove_extension (Filename.basename path))
    (Qasm_parser.read_file path)

(* Version dispatch: look for "OPENQASM 3" at the top; default to 2. *)
let looks_like_v3 src =
  let rec scan = function
    | (IDENT "OPENQASM", _) :: (NUMBER v, _) :: _ -> v >= 3.0
    | [] | [ _ ] -> false
    | _ :: rest -> scan rest
  in
  match tokenize src with
  | tokens -> scan tokens
  | exception Lex_error _ -> false

let parse_any_located ?name src =
  if looks_like_v3 src then parse_located ?name src
  else Qasm_parser.parse_located ?name src

let parse_any ?name src = fst (parse_any_located ?name src)

let parse_any_file_located path =
  parse_any_located
    ~name:(Filename.remove_extension (Filename.basename path))
    (Qasm_parser.read_file path)

let parse_any_file path = fst (parse_any_file_located path)
