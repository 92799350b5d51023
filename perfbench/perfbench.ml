(* One workload process: set up, run one of the workload's timed calls
   (a cold call, as a fresh CLI process pays it), check its outputs, and
   print one JSON line. `run.py` starts one such process per call and
   repetition and aggregates them.

     perfbench.exe WORKLOAD --list-calls
     perfbench.exe WORKLOAD --call NAME --seed N --tmp DIR
     perfbench.exe WORKLOAD --seed N --tmp DIR --trace SPANS_FILE

   With --trace the process runs the traced variant of every call of the
   workload: spans recorded in memory around the calls into each layer,
   Obs.Metrics counters on, the spans written to SPANS_FILE at exit, and
   the per-layer metrics added to the JSON line. *)

open Outcome

type entry = {
  steps : seed:int -> tmp:string -> step list;
  traced : seed:int -> tmp:string -> traced list;
  sampled : int list;  (** span names whose durations are kept for percentiles *)
  requests : int list;  (** the spans of one request: chunk, task or trial *)
  domains : int;  (** domains the workload process computes on *)
}

let workloads =
  [
    ( "census",
      {
        steps = Census_wl.census_steps;
        traced = Census_wl.census_traced;
        sampled = Census_wl.census_sampled;
        requests = Census_wl.census_requests;
        domains = Census_wl.jobs;
      } );
    ( "census-dist",
      {
        steps = Census_wl.dist_steps;
        traced = Census_wl.dist_traced;
        sampled = Census_wl.dist_sampled;
        requests = Census_wl.dist_requests;
        domains = 1;
      } );
    ( "analyse",
      {
        steps = Analyse_wl.steps;
        traced = Analyse_wl.traced;
        sampled = Analyse_wl.sampled;
        requests = Analyse_wl.requests;
        domains = 1;
      } );
    ( "ensemble",
      {
        steps = Ensemble_wl.steps;
        traced = Ensemble_wl.traced;
        sampled = Ensemble_wl.sampled;
        requests = Ensemble_wl.requests;
        domains = 1;
      } );
  ]

let json_of_call c =
  let open Obs.Json in
  Obj
    [
      ("call", String c.call);
      ("wall_s", Float c.wall_s);
      ("ops", Int c.ops);
      ("failed", Int c.failed);
      ( "checks",
        List
          (List.map
             (fun k -> Obj [ ("what", String k.what); ("ok", Bool k.ok); ("detail", String k.detail) ])
             c.checks) );
      ("digest", String c.digest);
    ]

let untraced entry ~seed ~tmp ~call =
  let step =
    match List.find_opt (fun st -> st.name = call) (entry.steps ~seed ~tmp) with
    | Some st -> st
    | None -> raise (Arg.Bad ("unknown call " ^ call))
  in
  let first_call_ns = Obs.Clock.now_ns () in
  let c = time_step step in
  [
    ("first_call_ns", Obs.Json.Int (Int64.to_int first_call_ns));
    ("calls", Obs.Json.List [ json_of_call c ]);
  ]

let traced entry ~seed ~tmp ~spans_file =
  Spans.enabled := true;
  Obs.Metrics.set_enabled true;
  let parts = entry.traced ~seed ~tmp in
  let rows = Spans.summarise ~sampled:entry.sampled in
  let wall = List.fold_left (fun acc p -> acc +. p.t_wall_s) 0.0 parts in
  let layers = Layers.create () in
  let share s = Layers.ratio s (wall *. float_of_int entry.domains) in
  let report = List.concat_map (fun p -> p.t_layers rows layers ~share) parts in
  let requests = dist (List.concat_map (fun sp -> rows.(sp).Spans.samples) entry.requests) in
  Layers.set layers "trace.wall_s" wall;
  Layers.seti layers "trace.spans" (Spans.count ());
  Layers.seti layers "request.samples" requests.samples;
  Layers.set layers "request.p50_s" requests.p50;
  Layers.set layers "request.tail_s" requests.tail;
  Spans.dump spans_file;
  let open Obs.Json in
  let span_rows =
    List.filter_map
      (fun i ->
        let r = rows.(i) in
        if r.Spans.calls = 0 then None
        else
          Some
            (Obj
               [
                 ("name", String (Spans.name_of i));
                 ("calls", Int r.calls);
                 ("total_s", Float (float_of_int r.total_ns /. 1e9));
                 ("self_s", Float (float_of_int r.self_ns /. 1e9));
               ]))
      (List.init (Array.length rows) Fun.id)
  in
  [
    ("calls", List (List.map json_of_call (List.concat_map (fun p -> p.t_calls) parts)));
    ( "trace",
      Obj
        [
          ("wall_s", Float wall);
          ("domains", Int entry.domains);
          ("layers", Layers.to_json layers);
          ("spans", List span_rows);
          ( "report",
            Obj
              (( "request_s",
                 String
                   (Printf.sprintf "p50 %.6g, tail %.6g (p%g of %d)" requests.p50 requests.tail
                      requests.tail_pct requests.samples) )
              :: List.map (fun (k, v) -> (k, String v)) report) );
        ] );
  ]

let () =
  let usage =
    "perfbench.exe WORKLOAD (--list-calls | --call NAME --seed N --tmp DIR | --seed N --tmp DIR \
     --trace SPANS_FILE)"
  in
  let workload = ref "" and seed = ref 0 and tmp = ref "." in
  let call = ref "" and spans_file = ref "" and list_calls = ref false in
  Arg.parse
    [
      ("--list-calls", Arg.Set list_calls, " print the workload's timed calls");
      ("--call", Arg.Set_string call, "NAME run this timed call");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for ledgers");
      ("--trace", Arg.Set_string spans_file, "FILE run traced, writing spans here");
    ]
    (fun w -> workload := w)
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline
      ("perfbench: unknown workload " ^ !workload ^ "; one of: "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  | Some entry ->
    let seed = !seed and tmp = !tmp in
    if !list_calls then
      List.iter (fun st -> print_endline st.name) (entry.steps ~seed ~tmp)
    else begin
      let fields =
        if !spans_file <> "" then traced entry ~seed ~tmp ~spans_file:!spans_file
        else if !call <> "" then untraced entry ~seed ~tmp ~call:!call
        else raise (Arg.Bad "one of --list-calls, --call or --trace is required")
      in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              ((("workload", Obs.Json.String !workload) :: fields)
              @ [ ("peak_rss_kb", Obs.Json.Int (peak_rss_kb ())) ])))
    end
