(* The busy-beaver census, n = 3: `bbsearch -n 3` in process
   (Busy_beaver.scan on two domains) and through the distributed scan
   (Distributed_scan.coordinate with two forked workers). *)

open Outcome
open Verdicts

let n = 3
let space = 373_248
let jobs = 2
let dist_chunk = 128
let dist_workers = 2
let checkpoint_every = 64

let hist_to_string h =
  String.concat "," (List.map (fun (eta, c) -> Printf.sprintf "%d:%d" eta c) h)

let digest (r : Busy_beaver.scan_result) =
  Printf.sprintf "scanned=%d threshold=%d reject_all=%d aborted=%d best=%d:%s hist=%s"
    r.num_protocols r.num_threshold r.num_reject_all r.num_aborted r.best_eta
    (match r.best with Some p -> p.Population.name | None -> "-")
    (hist_to_string r.histogram)

let census_checks (r : Busy_beaver.scan_result) =
  [
    expect_int "codes scanned" ~expected:space r.num_protocols;
    expect_int "threshold protocols" ~expected:92_060 r.num_threshold;
    expect_int "reject-all protocols" ~expected:91_852 r.num_reject_all;
    expect_int "apparent BB(3)" ~expected:3 r.best_eta;
    check "eta histogram"
      (r.histogram = [ (2, 91_852); (3, 208) ])
      (hist_to_string r.histogram);
    expect_int "aborted verdicts" ~expected:0 r.num_aborted;
    expect_int "task errors" ~expected:0 r.task_errors;
    check "every chunk completed"
      (r.completed_chunks = r.total_chunks && not r.interrupted)
      (Printf.sprintf "%d/%d chunks" r.completed_chunks r.total_chunks);
  ]

let census_verdict (r : Busy_beaver.scan_result) extra =
  verdict ~failed:r.num_aborted ~ops:space ~digest:(digest r) (census_checks r @ extra)

(* ------------------------------------------------------------ census *)

let census_steps ~seed:_ ~tmp:_ =
  [
    {
      name = "scan";
      ops = space;
      run =
        (fun () ->
          let r = Busy_beaver.scan ~jobs ~n () in
          fun () -> census_verdict r []);
    };
  ]

(* Traced census: the same chunks, run by the benchmark from the
   layers' public functions so each layer gets its own spans. Verdicts
   follow Busy_beaver's scan path exactly — eager packed exploration,
   then SCCs, then the bottom components' consensus — and the chunk
   accumulators use the scan's own serialisation, merged by
   Busy_beaver.result_of_chunks. *)

let sp_plan = Spans.name "busy_beaver.plan"
let sp_scan = Spans.name "busy_beaver.scan"
let sp_chunk = Spans.name "busy_beaver.chunk"
let sp_canon = Spans.name "busy_beaver.canonicalise"
let sp_decode = Spans.name "busy_beaver.decode"
let sp_merge = Spans.name "busy_beaver.merge"
let sp_scc = Spans.name "scc.compute"

(* [Some b] when every bottom component is a consensus on [b]; [None]
   for no consensus or conflicting components (either breaks the
   threshold pattern). *)
let decide_eager cnt p ~req c0 =
  let g =
    Spans.with_span sp_explore_packed ~req (fun () ->
        Configgraph.Packed.explore ~max_configs:60_000 p c0)
  in
  let scc = Spans.with_span sp_scc ~req (fun () -> Scc.compute g.Configgraph.Packed.succ) in
  Spans.with_span sp_verdict ~req (fun () ->
      let bottom = Scc.bottom_components scc in
      cnt.decisions <- cnt.decisions + 1;
      cnt.sccs <- cnt.sccs + scc.Scc.num_components;
      cnt.bottoms <- cnt.bottoms + List.length bottom;
      let d = Population.num_states p in
      let tbl = support_table p in
      let output v = packed_output ~d tbl g.Configgraph.Packed.configs.(v) in
      let outs = List.map (fun c -> component_output output scc.Scc.members.(c)) bottom in
      if List.mem None outs then None
      else
        match List.sort_uniq compare outs with [ Some b ] -> Some b | _ -> None)

type partial = {
  mutable scanned : int;
  mutable threshold : int;
  mutable reject_all : int;
  mutable aborted : int;
  mutable best_eta : int;
  mutable best_code : (int * int) option;
  hist : (int, int) Hashtbl.t;
}

let partial_json part =
  let open Obs.Json in
  let hist =
    Hashtbl.fold (fun eta c acc -> (eta, c) :: acc) part.hist []
    |> List.sort compare
    |> List.map (fun (eta, c) -> List [ Int eta; Int c ])
  in
  Obj
    [
      ("scanned", Int part.scanned);
      ("threshold", Int part.threshold);
      ("reject_all", Int part.reject_all);
      ("aborted", Int part.aborted);
      ("best_eta", Int part.best_eta);
      ( "best_code",
        match part.best_code with None -> Null | Some (a, o) -> List [ Int a; Int o ] );
      ("hist", List hist);
    ]

let num_outputs = 1 lsl n

let traced_chunk plan sym ~canonical ~cnts ci =
  let cnt = cnts.(ci) in
  let part =
    {
      scanned = 0;
      threshold = 0;
      reject_all = 0;
      aborted = 0;
      best_eta = 0;
      best_code = None;
      hist = Hashtbl.create 4;
    }
  in
  let lo, hi = Busy_beaver.plan_chunk_range plan ci in
  for idx = lo to hi - 1 do
    let assignment = idx / num_outputs and output_bits = idx mod num_outputs in
    match
      Spans.with_span sp_canon ~req:idx (fun () ->
          Busy_beaver.Symmetry.canonical_weight sym ~assignment ~output_bits)
    with
    | None -> ()
    | Some weight ->
      canonical.(ci) <- canonical.(ci) + 1;
      part.scanned <- part.scanned + weight;
      if output_bits = 0 then part.reject_all <- part.reject_all + weight
      else begin
        let p =
          Spans.with_span sp_decode ~req:idx (fun () ->
              Busy_beaver.protocol_of_code ~n ~assignment ~output_bits)
        in
        let threshold eta =
          part.threshold <- part.threshold + weight;
          Hashtbl.replace part.hist eta
            (weight + Option.value (Hashtbl.find_opt part.hist eta) ~default:0);
          if eta > part.best_eta then begin
            part.best_eta <- eta;
            part.best_code <- Some (assignment, output_bits)
          end
        in
        match
          Spans.with_span sp_eta ~req:idx (fun () ->
              let inputs = Fair_semantics.valid_inputs_single p ~max:12 in
              cnt.inputs <- cnt.inputs + List.length inputs;
              eta_sweep inputs ~decide:(fun i ->
                  decide_eager cnt p ~req:idx (Population.initial_config p [| i |])))
        with
        | Eta eta -> threshold eta
        | Accepts_all -> threshold 2
        | Rejects_all -> part.reject_all <- part.reject_all + weight
        | Not_threshold -> ()
        | exception Configgraph.Too_many_configs _ ->
          part.aborted <- part.aborted + weight
      end
  done;
  partial_json part

let census_traced ~seed:_ ~tmp:_ =
  let t0 = now_s () in
  let plan = Spans.with_span sp_plan ~req:0 (fun () -> Busy_beaver.plan ~jobs ~n ()) in
  let sym = Busy_beaver.Symmetry.make n in
  let chunks = Busy_beaver.plan_chunks plan in
  let slots = Array.make chunks None in
  (* per-chunk tallies: a chunk is owned by one domain *)
  let canonical = Array.make chunks 0 in
  let cnts = Array.init chunks (fun _ -> counts ()) in
  let stats =
    Spans.with_span sp_scan ~req:0 (fun () ->
        let parent = Spans.current () in
        Pool.run ~jobs ~chunk:1 ~name:"bbsearch" ~tasks:chunks (fun ~lo ~hi ->
            for ci = lo to hi - 1 do
              slots.(ci) <-
                Some
                  (Spans.with_span ~parent sp_chunk ~req:ci (fun () ->
                       traced_chunk plan sym ~canonical ~cnts ci))
            done))
  in
  let r = Spans.with_span sp_merge ~req:0 (fun () -> Busy_beaver.result_of_chunks plan slots) in
  let wall = now_s () -. t0 in
  let v = census_verdict r [] in
  let cnt = counts () in
  Array.iter
    (fun c ->
      cnt.decisions <- cnt.decisions + c.decisions;
      cnt.sccs <- cnt.sccs + c.sccs;
      cnt.bottoms <- cnt.bottoms + c.bottoms;
      cnt.inputs <- cnt.inputs + c.inputs)
    cnts;
  let layers rows layers ~share =
    let self sp = share (self_s rows sp) in
    Layers.seti layers "busy_beaver.codes" space;
    Layers.set layers "busy_beaver.canonical_share"
      (float_of_int (Array.fold_left ( + ) 0 canonical) /. float_of_int space);
    Layers.set layers "busy_beaver.canonicalise_share" (self sp_canon);
    Layers.set layers "busy_beaver.decode_share" (self sp_decode);
    Layers.set layers "busy_beaver.merge_share" (self sp_merge);
    Layers.seti layers "eta_search.calls" rows.(sp_eta).Spans.calls;
    Layers.seti layers "eta_search.inputs" cnt.inputs;
    Layers.set layers "eta_search.self_share" (self sp_eta);
    Layers.copy_counters layers
      [ "configgraph.explorations"; "configgraph.configs"; "configgraph.edges" ];
    let configs = float_of_int (Layers.counter "configgraph.configs") in
    Layers.set layers "configgraph.nodes_per_graph"
      (Layers.ratio configs (float_of_int (Layers.counter "configgraph.explorations")));
    Layers.set layers "configgraph.packed.configs_per_s"
      (Layers.ratio configs (self_s rows sp_explore_packed));
    Layers.set layers "configgraph.explore_share" (self sp_explore_packed);
    Layers.seti layers "fair.decisions" cnt.decisions;
    Layers.seti layers "fair.sccs" cnt.sccs;
    Layers.seti layers "fair.bottom_sccs" cnt.bottoms;
    Layers.set layers "scc.share" (self sp_scc);
    Layers.set layers "fair_semantics.verdict_share" (self sp_verdict);
    let chunk_d = dist rows.(sp_chunk).Spans.samples in
    let busy = Array.fold_left ( +. ) 0.0 stats.Pool.busy_s in
    Layers.set layers "pool.bbsearch.utilization" (Pool.utilization stats);
    Layers.seti layers "pool.bbsearch.chunks" (Array.fold_left ( + ) 0 stats.Pool.chunks);
    let chunk_max = List.fold_left Float.max 0.0 rows.(sp_chunk).Spans.samples in
    Layers.set layers "pool.bbsearch.straggler_ratio" (Layers.ratio chunk_max chunk_d.p50);
    Layers.seti layers "pool.bbsearch.task_errors" stats.Pool.task_errors;
    [
      ( "pool.bbsearch.idle_s",
        Printf.sprintf "%.4f" ((float_of_int stats.Pool.jobs *. stats.Pool.wall_s) -. busy) );
      ("busy_beaver.chunk_s", dist_line chunk_d ~scale:1.0);
      ("eta_search.protocol_us", dist_line (dist rows.(sp_eta).Spans.samples) ~scale:1e6);
    ]
  in
  [
    {
    t_calls =
      [
        {
          call = "scan";
          wall_s = wall;
          ops = space;
          failed = v.v_failed;
          checks = v.v_checks;
          digest = v.v_digest;
        };
      ];
    t_wall_s = wall;
    t_layers = layers;
  };
  ]

let census_sampled = [ sp_chunk; sp_eta ]
let census_requests = [ sp_chunk ]

(* ------------------------------------------------------- census-dist *)

let dist_checks (s : Dist.Coordinator.stats) =
  [
    expect_int "chunks merged" ~expected:2_916 s.chunks_done;
    expect_int "duplicate results" ~expected:0 s.duplicates;
    expect_int "workers lost" ~expected:0 s.workers_lost;
    expect_int "stale results" ~expected:0 s.stale_dropped;
  ]

let remove path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".tmp" ]

let ledger_path tmp tag =
  Filename.concat tmp (Printf.sprintf "census-dist-%s-%d.ckpt" tag (Unix.getpid ()))

let coordinate plan path =
  Distributed_scan.coordinate ~workers:dist_workers ~telemetry:false ~checkpoint:path
    ~checkpoint_every_chunks:checkpoint_every ~plan ()

let dist_steps ~seed:_ ~tmp =
  let plan = Busy_beaver.plan ~chunk:dist_chunk ~n () in
  let path = ledger_path tmp "ledger" in
  [
    {
      name = "coordinate";
      ops = space;
      run =
        (fun () ->
          let o = Fun.protect ~finally:(fun () -> remove path) (fun () -> coordinate plan path) in
          fun () ->
            census_verdict o.Distributed_scan.result (dist_checks o.Distributed_scan.stats));
    };
  ]

let sp_coordinate = Spans.name "distributed_scan.coordinate"
let sp_load = Spans.name "checkpoint.load"
let sp_dist_chunk = Spans.name "dist.chunk"
let sp_wire = Spans.name "dist.wire"
let sp_lease = Spans.name "dist.lease"
let sp_ckpt = Spans.name "checkpoint.save"

(* Traced census-dist: the coordinated scan exactly as timed (workers
   are separate processes, so no spans inside it), then its per-chunk
   coordinator work replayed on the ledger it wrote: every accumulator
   through Wire.send/recv on a socketpair, the lease table driven for
   two workers, and Checkpoint.save at the scan's cadence. *)
let dist_traced ~seed:_ ~tmp =
  let plan = Busy_beaver.plan ~chunk:dist_chunk ~n () in
  let path = ledger_path tmp "ledger" and replay_path = ledger_path tmp "replay" in
  Fun.protect
    ~finally:(fun () ->
      remove path;
      remove replay_path)
    (fun () ->
      let cpu0 = Unix.times () in
      let t0 = now_s () in
      let o = Spans.with_span sp_coordinate ~req:0 (fun () -> coordinate plan path) in
      let wall = now_s () -. t0 in
      let cpu1 = Unix.times () in
      let v =
        census_verdict o.Distributed_scan.result (dist_checks o.Distributed_scan.stats)
      in
      let ledger =
        match Spans.with_span sp_load ~req:0 (fun () -> Obs.Checkpoint.load path) with
        | Ok l -> l
        | Error msg -> failwith ("census-dist: ledger unreadable: " ^ msg)
      in
      let chunks = Busy_beaver.plan_chunks plan in
      let state ci =
        match Obs.Checkpoint.chunk_state ledger ci with
        | Some s -> s
        | None -> failwith (Printf.sprintf "census-dist: chunk %d missing from the ledger" ci)
      in
      let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let reader = Dist.Wire.reader rx in
      let frames = ref 0 and bytes = ref 0 and grants = ref 0 in
      let snapshots = ref 0 and snapshot_bytes = ref 0 in
      let wire ~req msg =
        let len = String.length (Obs.Json.to_string (Dist.Wire.to_json msg)) in
        incr frames;
        (* a v3 frame is "#3 <len> <8 hex digits of CRC> <payload>\n" *)
        bytes := !bytes + len + String.length (string_of_int len) + 14;
        Spans.with_span sp_wire ~req (fun () ->
            Dist.Wire.send tx msg;
            match Dist.Wire.recv reader with
            | Some m -> m
            | None -> failwith "census-dist: socketpair closed")
      in
      let slots = Array.make chunks None in
      let replica = Obs.Checkpoint.create ~config:(Busy_beaver.plan_config plan) ~total_chunks:chunks in
      let save ~req =
        Spans.with_span sp_ckpt ~req (fun () -> Obs.Checkpoint.save ~path:replay_path replica);
        incr snapshots;
        snapshot_bytes := !snapshot_bytes + (Unix.stat replay_path).Unix.st_size
      in
      let lease = Dist.Lease.create ~total:chunks ~completed:(fun _ -> false) () in
      let workers = [| "w0"; "w1" |] in
      let queues = Array.map (fun _ -> Queue.create ()) workers in
      Array.iter (fun w -> Dist.Lease.register lease ~worker:w ~now:(now_s ())) workers;
      let done_count = ref 0 in
      let t_replay = now_s () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close tx;
          Unix.close rx)
        (fun () ->
          while not (Dist.Lease.is_complete lease) do
            Array.iteri
              (fun wi w ->
                let q = queues.(wi) in
                if Queue.is_empty q then begin
                  match
                    Spans.with_span sp_lease ~req:(-1) (fun () ->
                        Dist.Lease.grant lease ~worker:w ~now:(now_s ()))
                  with
                  | Some (lo, hi) ->
                    incr grants;
                    ignore (wire ~req:lo (Dist.Wire.Grant { lo_chunk = lo; hi_chunk = hi; epoch = 1 }));
                    for ci = lo to hi - 1 do
                      Queue.push ci q
                    done
                  | None -> ()
                end;
                if not (Queue.is_empty q) then begin
                  let ci = Queue.pop q in
                  Spans.with_span sp_dist_chunk ~req:ci (fun () ->
                      (match wire ~req:ci (Dist.Wire.Result { chunk = ci; epoch = 1; state = state ci }) with
                       | Dist.Wire.Result { state; _ } -> slots.(ci) <- Some state
                       | _ -> failwith "census-dist: frame changed in transit");
                      (match
                         Spans.with_span sp_lease ~req:ci (fun () ->
                             Dist.Lease.complete lease ~chunk:ci ~now:(now_s ()))
                       with
                       | `Fresh -> ()
                       | `Duplicate -> failwith "census-dist: replayed chunk completed twice");
                      Obs.Checkpoint.mark_done replica ci (Option.get slots.(ci));
                      incr done_count;
                      if !done_count mod checkpoint_every = 0 then save ~req:ci)
                end)
              workers
          done;
          save ~req:chunks);
      let final_bytes = (Unix.stat replay_path).Unix.st_size in
      let replay_s = now_s () -. t_replay in
      let merged = Spans.with_span sp_merge ~req:0 (fun () -> Busy_beaver.result_of_chunks plan slots) in
      let replay_ok = digest merged = v.v_digest in
      let call =
        {
          call = "coordinate";
          wall_s = wall;
          ops = space;
          failed = v.v_failed + (if replay_ok then 0 else 1);
          checks =
            v.v_checks
            @ [ check "replayed accumulators merge to the scan's result" replay_ok (digest merged) ];
          digest = v.v_digest;
        }
      in
      let worker_cpu =
        cpu1.Unix.tms_cutime -. cpu0.Unix.tms_cutime
        +. (cpu1.Unix.tms_cstime -. cpu0.Unix.tms_cstime)
      in
      let layers rows layers ~share =
        let self sp = share (self_s rows sp) in
        let s = o.Distributed_scan.stats in
        Layers.seti layers "busy_beaver.codes" space;
        Layers.set layers "busy_beaver.merge_share" (self sp_merge);
        Layers.seti layers "dist.chunks_done" s.chunks_done;
        Layers.seti layers "dist.grants" !grants;
        Layers.seti layers "dist.frames" !frames;
        Layers.set layers "dist.bytes_per_chunk" (float_of_int !bytes /. float_of_int chunks);
        Layers.set layers "dist.wire_share" (self sp_wire);
        Layers.set layers "dist.lease_share" (self sp_lease);
        Layers.set layers "dist.worker_busy_share"
          (Layers.ratio worker_cpu (wall *. float_of_int dist_workers));
        Layers.seti layers "dist.reassigned" s.reassigned;
        Layers.seti layers "dist.duplicates" s.duplicates;
        Layers.seti layers "dist.workers_lost" s.workers_lost;
        Layers.seti layers "checkpoint.snapshots" !snapshots;
        Layers.seti layers "checkpoint.bytes" !snapshot_bytes;
        Layers.set layers "checkpoint.share" (self sp_ckpt);
        [
          ("dist.replay_s", Printf.sprintf "%.4f" replay_s);
          ("dist.chunk_handling_us", dist_line (dist rows.(sp_dist_chunk).Spans.samples) ~scale:1e6);
          ("checkpoint.final_bytes", string_of_int final_bytes);
          ("dist.worker_cpu_s", Printf.sprintf "%.4f" worker_cpu);
        ]
      in
      [ { t_calls = [ call ]; t_wall_s = wall; t_layers = layers } ])

let dist_sampled = [ sp_dist_chunk ]
let dist_requests = dist_sampled
