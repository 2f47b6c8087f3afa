open Qasm_lexer

exception Parse_error of string * int

type register =
  { base : int  (** index of the register's bit 0 in the flat space *)
  ; size : int
  }

type body_stmt =
  { call_name : string
  ; call_args : ((string * float) list -> float) list
  ; call_operands : string list
  }

and gatedef =
  { formals : string list
  ; qargs : string list
  ; body : body_stmt list
  }

type state =
  { mutable tokens : (token * int) list
  ; qregs : (string, register) Hashtbl.t
  ; cregs : (string, register) Hashtbl.t
  ; defs : (string, gatedef) Hashtbl.t
  ; mutable num_qubits : int
  ; mutable num_cbits : int
  ; mutable rev_ops : Op.t list
  ; mutable rev_lines : int list  (** source line of each emitted op, parallel to [rev_ops] *)
  ; mutable last_line : int  (** line of the last consumed token, for EOF errors *)
  }

(* the 1-based source line of the next token; at EOF, of the last one *)
let line st = match st.tokens with (_, l) :: _ -> l | [] -> st.last_line

let fail st msg = raise (Parse_error (msg, line st))

let peek st = match st.tokens with (t, _) :: _ -> t | [] -> EOF

let advance st =
  match st.tokens with
  | (_, l) :: rest ->
    st.last_line <- l;
    st.tokens <- rest
  | [] -> ()

let expect st tok =
  if peek st = tok then advance st
  else fail st (Fmt.str "expected %a, found %a" pp_token tok pp_token (peek st))

let expect_ident st =
  match peek st with
  | IDENT s ->
    advance st;
    s
  | t -> fail st (Fmt.str "expected identifier, found %a" pp_token t)

let expect_nat st =
  match peek st with
  | NUMBER f when Float.is_integer f && f >= 0.0 ->
    advance st;
    int_of_float f
  | t -> fail st (Fmt.str "expected integer, found %a" pp_token t)

(* Expressions: expr := term (('+'|'-') term)*,
   term := factor (('*'|'/') factor)*, factor := ['-'] atom,
   atom := number | pi | identifier | '(' expr ')'.
   Parsed into closures over a parameter environment so that gate-definition
   bodies can reference their formal parameters; top-level expressions are
   evaluated against the empty environment. *)
type expr = (string * float) list -> float

let rec parse_expr st : expr =
  let lhs = parse_term st in
  let rec loop acc =
    match peek st with
    | PLUS ->
      advance st;
      let rhs = parse_term st in
      loop (fun env -> acc env +. rhs env)
    | MINUS ->
      advance st;
      let rhs = parse_term st in
      loop (fun env -> acc env -. rhs env)
    | _ -> acc
  in
  loop lhs

and parse_term st : expr =
  let lhs = parse_factor st in
  let rec loop acc =
    match peek st with
    | STAR ->
      advance st;
      let rhs = parse_factor st in
      loop (fun env -> acc env *. rhs env)
    | SLASH ->
      advance st;
      let rhs = parse_factor st in
      loop (fun env -> acc env /. rhs env)
    | _ -> acc
  in
  loop lhs

and parse_factor st : expr =
  match peek st with
  | MINUS ->
    advance st;
    let inner = parse_factor st in
    fun env -> -.inner env
  | _ -> parse_atom st

and parse_atom st : expr =
  match peek st with
  | NUMBER f ->
    advance st;
    fun _ -> f
  | IDENT "pi" ->
    advance st;
    fun _ -> Float.pi
  | IDENT name ->
    let at = line st in
    advance st;
    fun env ->
      (match List.assoc_opt name env with
       | Some v -> v
       | None -> raise (Parse_error (Fmt.str "unbound parameter %s" name, at)))
  | LPAREN ->
    advance st;
    let v = parse_expr st in
    expect st RPAREN;
    v
  | t -> fail st (Fmt.str "expected expression, found %a" pp_token t)

let parse_arg_exprs st =
  match peek st with
  | LPAREN ->
    advance st;
    let rec loop acc =
      let v = parse_expr st in
      match peek st with
      | COMMA ->
        advance st;
        loop (v :: acc)
      | _ ->
        expect st RPAREN;
        List.rev (v :: acc)
    in
    loop []
  | _ -> []

let parse_args st = List.map (fun e -> e []) (parse_arg_exprs st)

(* A qubit operand [name[i]]; bare register names (broadcast) are only
   accepted for registers of size 1. *)
let parse_qubit st =
  let name = expect_ident st in
  let reg =
    match Hashtbl.find_opt st.qregs name with
    | Some r -> r
    | None -> fail st (Fmt.str "unknown quantum register %s" name)
  in
  match peek st with
  | LBRACKET ->
    advance st;
    let idx = expect_nat st in
    expect st RBRACKET;
    if idx >= reg.size then fail st (Fmt.str "index %d out of range for %s" idx name)
    else reg.base + idx
  | _ ->
    if reg.size = 1 then reg.base
    else fail st (Fmt.str "register %s used without index" name)

let parse_cbit st =
  let name = expect_ident st in
  let reg =
    match Hashtbl.find_opt st.cregs name with
    | Some r -> r
    | None -> fail st (Fmt.str "unknown classical register %s" name)
  in
  match peek st with
  | LBRACKET ->
    advance st;
    let idx = expect_nat st in
    expect st RBRACKET;
    if idx >= reg.size then fail st (Fmt.str "index %d out of range for %s" idx name)
    else reg.base + idx
  | _ ->
    if reg.size = 1 then reg.base
    else fail st (Fmt.str "register %s used without index" name)

let nth_arg st args k =
  match List.nth_opt args k with
  | Some v -> v
  | None -> fail st "missing gate parameter"

let gate_of_name st name args =
  let a k = nth_arg st args k in
  match (name, List.length args) with
  | "id", 0 -> Gates.I
  | "x", 0 -> Gates.X
  | "y", 0 -> Gates.Y
  | "z", 0 -> Gates.Z
  | "h", 0 -> Gates.H
  | "s", 0 -> Gates.S
  | "sdg", 0 -> Gates.Sdg
  | "t", 0 -> Gates.T
  | "tdg", 0 -> Gates.Tdg
  | "sx", 0 -> Gates.SX
  | "sxdg", 0 -> Gates.SXdg
  | "rx", 1 -> Gates.RX (a 0)
  | "ry", 1 -> Gates.RY (a 0)
  | "rz", 1 -> Gates.RZ (a 0)
  | ("p" | "u1"), 1 -> Gates.P (a 0)
  | "u2", 2 -> Gates.U2 (a 0, a 1)
  | ("u3" | "u" | "U"), 3 -> Gates.U3 (a 0, a 1, a 2)
  | _ -> fail st (Fmt.str "unknown gate %s with %d parameters" name (List.length args))

(* Every op is checked against the registers declared so far, so a
   malformed statement fails with its own line instead of an
   [Invalid_argument] from [Circ.make]. *)
let emit_at st ~line op =
  (match Op.validate ~num_qubits:st.num_qubits ~num_cbits:st.num_cbits op with
   | Ok () -> ()
   | Error msg -> raise (Parse_error (msg, line)));
  st.rev_ops <- op :: st.rev_ops;
  st.rev_lines <- line :: st.rev_lines

(* Builtin (qelib1-style) gate applications, by name. *)
let builtin_ops st name args operands =
  let controlled base_name =
    match operands with
    | [ c; t ] ->
      let gate = gate_of_name st base_name args in
      [ Op.Apply { gate; controls = [ { cq = c; pos = true } ]; target = t } ]
    | _ -> fail st (Fmt.str "%s expects 2 operands" name)
  in
  match name with
  | "cx" | "CX" -> controlled "x"
  | "cy" -> controlled "y"
  | "cz" -> controlled "z"
  | "ch" -> controlled "h"
  | "cp" | "cu1" -> controlled "p"
  | "crz" -> controlled "rz"
  | "cu3" -> controlled "u3"
  | "swap" ->
    (match operands with
     | [ a; b ] -> [ Op.Swap (a, b) ]
     | _ -> fail st "swap expects 2 operands")
  | "ccx" ->
    (match operands with
     | [ c1; c2; t ] ->
       [ Op.Apply
           { gate = Gates.X
           ; controls = [ { cq = c1; pos = true }; { cq = c2; pos = true } ]
           ; target = t
           }
       ]
     | _ -> fail st "ccx expects 3 operands")
  | _ ->
    (match operands with
     | [ t ] ->
       [ Op.Apply { gate = gate_of_name st name args; controls = []; target = t } ]
     | _ -> fail st (Fmt.str "gate %s expects 1 operand" name))

(* Resolve a gate application, expanding user definitions recursively. *)
let rec resolve_gate st name args operands =
  match Hashtbl.find_opt st.defs name with
  | None -> builtin_ops st name args operands
  | Some def ->
    if List.length args <> List.length def.formals then
      fail st (Fmt.str "gate %s expects %d parameters" name (List.length def.formals));
    if List.length operands <> List.length def.qargs then
      fail st (Fmt.str "gate %s expects %d operands" name (List.length def.qargs));
    let env = List.combine def.formals args in
    let wire = List.combine def.qargs operands in
    List.concat_map
      (fun stmt ->
        let args = List.map (fun e -> e env) stmt.call_args in
        let operands =
          List.map
            (fun formal ->
              match List.assoc_opt formal wire with
              | Some q -> q
              | None -> fail st (Fmt.str "unknown operand %s in gate %s" formal name))
            stmt.call_operands
        in
        resolve_gate st stmt.call_name args operands)
      def.body

(* One operation statement (gate application, measure, reset, barrier);
   used both at top level and as the body of an [if]. *)
let rec parse_operation st =
  let name = expect_ident st in
  match name with
  | "measure" ->
    let q = parse_qubit st in
    expect st ARROW;
    let c = parse_cbit st in
    expect st SEMICOLON;
    [ Op.Measure { qubit = q; cbit = c } ]
  | "reset" ->
    let q = parse_qubit st in
    expect st SEMICOLON;
    [ Op.Reset q ]
  | "barrier" ->
    let rec operands acc =
      let q = parse_qubit st in
      match peek st with
      | COMMA ->
        advance st;
        operands (q :: acc)
      | _ ->
        expect st SEMICOLON;
        List.rev (q :: acc)
    in
    [ Op.Barrier (operands []) ]
  | "if" ->
    expect st LPAREN;
    let creg_name = expect_ident st in
    let reg =
      match Hashtbl.find_opt st.cregs creg_name with
      | Some r -> r
      | None -> fail st (Fmt.str "unknown classical register %s" creg_name)
    in
    expect st EQEQ;
    let value = expect_nat st in
    expect st RPAREN;
    let body = parse_operation st in
    let bits = List.init reg.size (fun i -> reg.base + i) in
    (* a condition distributes over an expanded gate definition *)
    List.map (fun op -> Op.Cond { cond = { bits; value }; op }) body
  | "cswap" -> fail st "cswap is not supported (decompose it upstream)"
  | _ ->
    let args = parse_args st in
    let operands =
      let rec loop acc =
        let q = parse_qubit st in
        match peek st with
        | COMMA ->
          advance st;
          loop (q :: acc)
        | _ ->
          expect st SEMICOLON;
          List.rev (q :: acc)
      in
      loop []
    in
    resolve_gate st name args operands

(* gate name(p1, ...) q1, q2 { body }   — bodies contain only gate
   applications on the formal operands, as OpenQASM 2 requires. *)
let parse_gate_definition st =
  expect st (IDENT "gate");
  let name = expect_ident st in
  let formals =
    match peek st with
    | LPAREN ->
      advance st;
      (match peek st with
       | RPAREN ->
         advance st;
         []
       | _ ->
         let rec loop acc =
           let p = expect_ident st in
           match peek st with
           | COMMA ->
             advance st;
             loop (p :: acc)
           | _ ->
             expect st RPAREN;
             List.rev (p :: acc)
         in
         loop [])
    | _ -> []
  in
  let qargs =
    let rec loop acc =
      let q = expect_ident st in
      match peek st with
      | COMMA ->
        advance st;
        loop (q :: acc)
      | _ -> List.rev (q :: acc)
    in
    loop []
  in
  expect st LBRACE;
  let body = ref [] in
  let rec statements () =
    match peek st with
    | RBRACE -> advance st
    | IDENT "barrier" ->
      (* barriers inside definitions are layout hints; skip to ';' *)
      let rec skip () =
        match peek st with
        | SEMICOLON ->
          advance st
        | EOF -> fail st "unterminated gate body"
        | _ ->
          advance st;
          skip ()
      in
      skip ();
      statements ()
    | IDENT call_name ->
      advance st;
      let call_args = parse_arg_exprs st in
      let call_operands =
        let rec loop acc =
          let q = expect_ident st in
          match peek st with
          | COMMA ->
            advance st;
            loop (q :: acc)
          | _ ->
            expect st SEMICOLON;
            List.rev (q :: acc)
        in
        loop []
      in
      body := { call_name; call_args; call_operands } :: !body;
      statements ()
    | t -> fail st (Fmt.str "unexpected %a in gate body" pp_token t)
  in
  statements ();
  Hashtbl.replace st.defs name { formals; qargs; body = List.rev !body }

let parse_statement st =
  match peek st with
  | EOF -> false
  | IDENT "OPENQASM" ->
    advance st;
    (match peek st with
     | NUMBER _ -> advance st
     | _ -> fail st "expected version number");
    expect st SEMICOLON;
    true
  | IDENT "include" ->
    advance st;
    (match peek st with
     | STRING _ -> advance st
     | _ -> fail st "expected file name");
    expect st SEMICOLON;
    true
  | IDENT "qreg" ->
    advance st;
    let name = expect_ident st in
    expect st LBRACKET;
    let size = expect_nat st in
    expect st RBRACKET;
    expect st SEMICOLON;
    Hashtbl.replace st.qregs name { base = st.num_qubits; size };
    st.num_qubits <- st.num_qubits + size;
    true
  | IDENT "creg" ->
    advance st;
    let name = expect_ident st in
    expect st LBRACKET;
    let size = expect_nat st in
    expect st RBRACKET;
    expect st SEMICOLON;
    Hashtbl.replace st.cregs name { base = st.num_cbits; size };
    st.num_cbits <- st.num_cbits + size;
    true
  | IDENT "gate" ->
    parse_gate_definition st;
    true
  | IDENT _ ->
    let at = line st in
    List.iter (emit_at st ~line:at) (parse_operation st);
    true
  | t -> fail st (Fmt.str "unexpected %a" pp_token t)

let make_state src =
  { tokens = tokenize src
  ; qregs = Hashtbl.create 4
  ; cregs = Hashtbl.create 4
  ; defs = Hashtbl.create 4
  ; num_qubits = 0
  ; num_cbits = 0
  ; rev_ops = []
  ; rev_lines = []
  ; last_line = 0
  }

let finish_located st ~name =
  ( Circ.make ~name ~qubits:st.num_qubits ~cbits:st.num_cbits (List.rev st.rev_ops)
  , Array.of_list (List.rev st.rev_lines) )

let parse_located ?(name = "qasm") src =
  let st = make_state src in
  let rec loop () = if parse_statement st then loop () in
  (try loop () with
   | Lex_error (msg, line) -> raise (Parse_error ("lexical error: " ^ msg, line)));
  finish_located st ~name

let parse ?name src = fst (parse_located ?name src)

(* Every exit path closes the channel.  Some failures, such as reading a
   directory, raise a [Sys_error] that does not name the file; those get
   the path in front, like the message of a failed open. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg when not (String.starts_with ~prefix:(path ^ ": ") msg) ->
    raise (Sys_error (path ^ ": " ^ msg))

let parse_file_located path =
  parse_located ~name:(Filename.remove_extension (Filename.basename path))
    (read_file path)

let parse_file path = fst (parse_file_located path)


(* Reusable machinery for other front ends (the OpenQASM 3 parser). *)
module Engine = struct
  type nonrec state = state

  let make = make_state
  let peek = peek

  let peek2 st =
    match st.tokens with _ :: (t, _) :: _ -> t | _ -> Qasm_lexer.EOF

  let advance = advance
  let expect = expect
  let expect_ident = expect_ident
  let expect_nat = expect_nat
  let fail = fail
  let line = line

  let declare_qreg st name size =
    Hashtbl.replace st.qregs name { base = st.num_qubits; size };
    st.num_qubits <- st.num_qubits + size

  let declare_creg st name size =
    Hashtbl.replace st.cregs name { base = st.num_cbits; size };
    st.num_cbits <- st.num_cbits + size

  let is_creg st name = Hashtbl.mem st.cregs name
  let parse_qubit = parse_qubit
  let parse_cbit = parse_cbit
  let parse_args = parse_args
  let resolve_gate = resolve_gate
  let parse_gate_definition = parse_gate_definition
  let emit_at = emit_at
  let finish_located = finish_located
  let finish st ~name = fst (finish_located st ~name)
end
