type config =
  { strategy : string
  ; transform : bool
  ; perm : int array option
  ; seed : int option
  ; tol : float
  }

let make ~digest_a ~digest_b cfg =
  let b = Buffer.create 160 in
  Buffer.add_string b "qcec-key/v2|";
  Buffer.add_string b digest_a;
  Buffer.add_char b '|';
  Buffer.add_string b digest_b;
  Buffer.add_string b "|s=";
  Buffer.add_string b cfg.strategy;
  Buffer.add_string b (if cfg.transform then "|t=1" else "|t=0");
  (match cfg.perm with
   | None -> Buffer.add_string b "|p="
   | Some p ->
     Buffer.add_string b "|p=";
     Array.iter (fun q -> Buffer.add_string b (string_of_int q ^ ",")) p);
  (match cfg.seed with
   | None -> Buffer.add_string b "|seed="
   | Some s -> Buffer.add_string b ("|seed=" ^ string_of_int s));
  Buffer.add_string b (Printf.sprintf "|tol=%.17g" cfg.tol);
  Digest.to_hex (Digest.string (Buffer.contents b))
