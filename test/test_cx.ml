(* Complex kernel and tolerance-interning tests. *)

module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table

let test_constants () =
  Util.check_cx "one" (Cx.make 1.0 0.0) Cx.one;
  Util.check_cx "i*i" Cx.minus_one (Cx.mul Cx.i Cx.i);
  Util.check_float "sqrt2_inv" (1.0 /. Float.sqrt 2.0) Cx.sqrt2_inv

let test_arithmetic () =
  let a = Cx.make 1.5 (-2.0) and b = Cx.make (-0.25) 3.0 in
  Util.check_cx "add" (Cx.make 1.25 1.0) (Cx.add a b);
  Util.check_cx "sub" (Cx.make 1.75 (-5.0)) (Cx.sub a b);
  Util.check_cx "mul" (Cx.make 5.625 5.0) (Cx.mul a b);
  Util.check_cx "div-roundtrip" a (Cx.mul (Cx.div a b) b);
  Util.check_cx "inv" Cx.one (Cx.mul a (Cx.inv a));
  Util.check_cx "conj-involution" a (Cx.conj (Cx.conj a));
  Util.check_float "abs2" (Cx.abs2 a) (Cx.abs a *. Cx.abs a)

let test_e_i_pi_exact () =
  (* multiples of pi/4 must be bit-exact *)
  let v = Cx.e_i_pi 0.0 in
  Alcotest.(check bool) "e^0 exact" true (v = Cx.one);
  let v = Cx.e_i_pi 1.0 in
  Alcotest.(check bool) "e^{i pi} exact" true (v = Cx.minus_one);
  let v = Cx.e_i_pi 0.5 in
  Alcotest.(check bool) "e^{i pi/2} exact" true (v = Cx.i);
  let v = Cx.e_i_pi 0.25 in
  Util.check_cx "e^{i pi/4}" (Cx.make Cx.sqrt2_inv Cx.sqrt2_inv) v;
  Alcotest.(check bool) "components exact"
    true
    (v.Cx.re = Cx.sqrt2_inv && v.Cx.im = Cx.sqrt2_inv);
  (* negative arguments and periodicity *)
  Util.check_cx "e^{-i pi/2}" (Cx.neg Cx.i) (Cx.e_i_pi (-0.5));
  Util.check_cx "periodicity" (Cx.e_i_pi 0.3) (Cx.e_i_pi 2.3)

let test_polar () =
  let z = Cx.polar 2.0 (Float.pi /. 6.0) in
  Util.check_float "polar abs" 2.0 (Cx.abs z);
  Util.check_float "polar arg" (Float.pi /. 6.0) (Cx.arg z);
  Util.check_cx "sqrt" z (Cx.mul (Cx.sqrt z) (Cx.sqrt z))

let test_table_identifies_close_values () =
  let t = Ct.create ~tol:1e-10 ()
  in
  let a = Ct.lookup t (Cx.make 0.5 0.25) in
  let b = Ct.lookup t (Cx.make (0.5 +. 1e-12) (0.25 -. 1e-12)) in
  Alcotest.(check int) "same id for close values" a.Ct.id b.Ct.id;
  let c = Ct.lookup t (Cx.make 0.5001 0.25) in
  Alcotest.(check bool) "distinct id for far values" true (a.Ct.id <> c.Ct.id)

let test_table_relative_scale () =
  (* values at magnitude 1e-20 must intern non-zero and identify relatively *)
  let t = Ct.create () in
  let tiny = 5.4e-20 in
  let a = Ct.lookup t (Cx.make tiny 0.0) in
  Alcotest.(check bool) "tiny value is not zero" false (Ct.is_zero a);
  let b = Ct.lookup t (Cx.make (tiny *. (1.0 +. 1e-12)) 0.0) in
  Alcotest.(check int) "relative identification at 1e-20" a.Ct.id b.Ct.id;
  let c = Ct.lookup t (Cx.make (tiny *. 1.001) 0.0) in
  Alcotest.(check bool) "relative distinction at 1e-20" true (a.Ct.id <> c.Ct.id)

let test_table_zero_one () =
  let t = Ct.create () in
  Alcotest.(check bool) "0 interns to zero" true (Ct.is_zero (Ct.lookup t Cx.zero));
  Alcotest.(check bool) "1 interns to one" true (Ct.is_one (Ct.lookup t Cx.one));
  let near_one = Ct.lookup t (Cx.make (1.0 +. 1e-13) 1e-13) in
  Alcotest.(check bool) "value near 1 interns to one" true (Ct.is_one near_one);
  let sub = Ct.lookup t (Cx.make 1e-300 0.0) in
  Alcotest.(check bool) "below hard floor is zero" true (Ct.is_zero sub)

let prop_interning_idempotent =
  QCheck.Test.make ~name:"interning is idempotent" ~count:500
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (re, im) ->
      let t = Ct.create () in
      let a = Ct.lookup t (Cx.make re im) in
      let b = Ct.lookup t (Ct.to_cx a) in
      a.Ct.id = b.Ct.id)

(* Differential tests against [Cx_table_ref], the unpruned 27-cell walk.
   A stream mixes fresh values (magnitudes 2^-70..2^4, one in ten within
   4 tol of a power of two, on-axis values, powers of 1/sqrt 2) with
   re-lookups of earlier values perturbed by up to 1.5 tol |z| per
   component; halfway through, the table is rebuilt from a random half of
   its live values. *)
module Ref = Cx_table_ref

let tol = 1e-10

let fresh st =
  let sign () = if Random.State.bool st then 1.0 else -1.0 in
  let p = Float.ldexp 1.0 (Random.State.int st 75 - 70) in
  match Random.State.int st 10 with
  | 0 ->
    let m = sign () *. p *. (1.0 +. ((Random.State.float st 8.0 -. 4.0) *. tol)) in
    let other = sign () *. Random.State.float st (0.9 *. p) in
    if Random.State.bool st then Cx.make m other else Cx.make other m
  | 1 | 2 ->
    let x = sign () *. Random.State.float st p in
    if Random.State.bool st then Cx.make x 0.0 else Cx.make 0.0 x
  | 3 | 4 ->
    let x = Float.pow Cx.sqrt2_inv (float_of_int (Random.State.int st 40)) in
    (match Random.State.int st 3 with
     | 0 -> Cx.make (sign () *. x) 0.0
     | 1 -> Cx.make 0.0 (sign () *. x)
     | _ -> Cx.make (sign () *. x) (sign () *. x))
  | _ -> Cx.polar (Random.State.float st p) (Random.State.float st (2.0 *. Float.pi))

let perturb st (z : Cx.t) =
  let r = 1.5 *. tol *. Cx.abs z in
  let d () = (Random.State.float st 2.0 -. 1.0) *. r in
  let dre = d () in
  let dim = d () in
  Cx.make (z.Cx.re +. dre) (z.Cx.im +. dim)

let stream seed =
  let st = Random.State.make [| seed |] in
  let zs = Array.make 2000 Cx.zero in
  for i = 0 to Array.length zs - 1 do
    zs.(i) <-
      (if i > 0 && Random.State.int st 3 = 0 then perturb st zs.(Random.State.int st i)
       else fresh st)
  done;
  zs

let survives seed id = Hashtbl.hash (seed, id) land 1 = 0

let prop_same_representative =
  QCheck.Test.make ~name:"interning returns the unpruned walk's representative" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let zs = stream seed in
      let t = Ct.create ~tol () and r = Ref.create ~tol () in
      let live = Hashtbl.create 1024 in
      Array.iteri
        (fun i z ->
          if i = Array.length zs / 2 then begin
            let keep =
              Hashtbl.fold
                (fun id pair acc -> if survives seed id then (id, pair) :: acc else acc)
                live []
              |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
            in
            Hashtbl.reset live;
            List.iter (fun (id, pair) -> Hashtbl.add live id pair) keep;
            Ct.rebuild t (List.map (fun (_, (v, _)) -> v) keep);
            Ref.rebuild r (List.map (fun (_, (_, w)) -> w) keep)
          end;
          let v = Ct.lookup t z and w = Ref.lookup r z in
          if
            not
              (v.Ct.id = w.Ref.id
              && Float.equal v.Ct.re w.Ref.re
              && Float.equal v.Ct.im w.Ref.im
              && Ct.size t = Ref.size r)
          then
            QCheck.Test.fail_reportf
              "lookup %d of (%h, %h): id %d (%h, %h), reference id %d (%h, %h)" i z.Cx.re
              z.Cx.im v.Ct.id v.Ct.re v.Ct.im w.Ref.id w.Ref.re w.Ref.im;
          if v.Ct.id > 1 then Hashtbl.replace live v.Ct.id (v, w))
        zs;
      true)

(* the table's own match criterion, checked against every live value *)
let within (z : Cx.t) (u : Ct.value) =
  let mag re im = Float.max (Float.abs re) (Float.abs im) in
  let scale = Float.max (mag z.Cx.re z.Cx.im) (mag u.Ct.re u.Ct.im) in
  Float.abs (u.Ct.re -. z.Cx.re) <= tol *. scale
  && Float.abs (u.Ct.im -. z.Cx.im) <= tol *. scale

let prop_no_duplicate_representative =
  QCheck.Test.make ~name:"interning never inserts a value matching a live one" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let zs = stream seed in
      let t = Ct.create ~tol () in
      let live = ref [] in
      Array.iteri
        (fun i z ->
          if i = Array.length zs / 2 then begin
            live := List.filter (fun (v : Ct.value) -> survives seed v.Ct.id) !live;
            Ct.rebuild t !live
          end;
          let before = Ct.size t in
          let v = Ct.lookup t z in
          if Ct.size t > before then begin
            (match List.find_opt (within z) (Ct.one :: !live) with
             | Some u ->
               QCheck.Test.fail_reportf "(%h, %h) inserted as id %d beside live id %d"
                 z.Cx.re z.Cx.im v.Ct.id u.Ct.id
             | None -> ());
            live := v :: !live
          end)
        zs;
      true)

let prop_mul_commutes =
  QCheck.Test.make ~name:"multiplication commutes" ~count:500
    QCheck.(
      quad (float_range (-2.) 2.) (float_range (-2.) 2.) (float_range (-2.) 2.)
        (float_range (-2.) 2.))
    (fun (a, b, c, d) ->
      let x = Cx.make a b and y = Cx.make c d in
      Util.cx_close (Cx.mul x y) (Cx.mul y x))

let prop_abs_multiplicative =
  QCheck.Test.make ~name:"|xy| = |x||y|" ~count:500
    QCheck.(
      quad (float_range (-2.) 2.) (float_range (-2.) 2.) (float_range (-2.) 2.)
        (float_range (-2.) 2.))
    (fun (a, b, c, d) ->
      let x = Cx.make a b and y = Cx.make c d in
      Float.abs (Cx.abs (Cx.mul x y) -. (Cx.abs x *. Cx.abs y)) < 1e-9)

let suite =
  [ Alcotest.test_case "constants" `Quick test_constants
  ; Alcotest.test_case "arithmetic" `Quick test_arithmetic
  ; Alcotest.test_case "e_i_pi exactness" `Quick test_e_i_pi_exact
  ; Alcotest.test_case "polar form" `Quick test_polar
  ; Alcotest.test_case "table identifies close values" `Quick
      test_table_identifies_close_values
  ; Alcotest.test_case "table works at tiny scales" `Quick test_table_relative_scale
  ; Alcotest.test_case "table zero/one handling" `Quick test_table_zero_one
  ; Util.qtest prop_interning_idempotent
  ; Util.qtest prop_same_representative
  ; Util.qtest prop_no_duplicate_representative
  ; Util.qtest prop_mul_commutes
  ; Util.qtest prop_abs_multiplicative
  ]
