type reading =
  { metrics : Metrics.snapshot
  ; spans : Span.entry list
  }

let empty = { metrics = []; spans = [] }

let run f =
  if not (Metrics.enabled ()) then (f (), empty)
  else begin
    let m = Metrics.enter () and s = Span.enter () in
    let leave () = { metrics = Metrics.leave m; spans = Span.leave s } in
    match f () with
    | v -> (v, leave ())
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (leave ());
      Printexc.raise_with_backtrace e bt
  end

let absorb r =
  Metrics.absorb r.metrics;
  Span.absorb r.spans
