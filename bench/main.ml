(* The experiment harness: regenerates every experiment of
   EXPERIMENTS.md (the paper has no tables or figures — each experiment
   is keyed to a theorem, lemma or example instead) and then runs the
   bechamel timing micro-benchmarks.

   Run with `dune exec bench/main.exe`; pass a subset of section names
   (e.g. `E1 E11 timings`) to run only those. *)

let section id title =
  Printf.printf "\n== %s: %s ==\n%!" id title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  section "E1" "Example 2.1 — P_k vs P'_k compute x >= 2^k";
  row "%-4s %-12s %-12s %-14s %-14s\n" "k" "states(P_k)" "states(P'_k)" "eta(P_k)" "eta(P'_k)";
  List.iter
    (fun k ->
      let eta_of p max_input =
        match Eta_search.find p ~max_input with
        | Eta_search.Eta e -> string_of_int e
        | Eta_search.Always_accepts -> "<=2"
        | r -> Format.asprintf "%a" Eta_search.pp_result r
      in
      let naive = Flock.naive k and succinct = Flock.succinct k in
      let max_input = (1 lsl k) + 6 in
      row "%-4d %-12d %-12d %-14s %-14s\n" k
        (Population.num_states naive)
        (Population.num_states succinct)
        (eta_of naive max_input) (eta_of succinct max_input))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  section "E2" "Theorem 2.2 — BB(n) ∈ Ω(2^n): states vs eta for the constructions";
  row "%-8s %-14s %-14s %-10s\n" "eta" "unary-states" "binary-states" "log2(eta)";
  List.iter
    (fun eta ->
      row "%-8d %-14d %-14d %-10.1f\n" eta
        (State_complexity.states_unary eta)
        (State_complexity.states_binary eta)
        (Float.log2 (float_of_int eta)))
    [ 2; 3; 4; 6; 8; 13; 16; 32; 64; 128; 1000; 65536; 1_000_000 ];
  row "\nconstructive busy-beaver lower bound (succinct flock, exact-verified for small n):\n";
  row "%-4s %-16s\n" "n" "BB(n) >=";
  List.iter
    (fun n -> row "%-4d %-16d\n" n (State_complexity.busy_beaver_lower n))
    [ 3; 4; 5; 6; 8; 10; 16; 24 ]

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  section "E3" "Leader protocols — the leader-counter family (see DESIGN.md on [12]'s Ω(2^2^n))";
  row "%-4s %-8s %-8s %-8s %-20s\n" "k" "states" "leaders" "eta" "verified";
  List.iter
    (fun k ->
      let p = Leader_counter.protocol k in
      let eta =
        match Eta_search.find p ~max_input:((1 lsl k) + 4) with
        | Eta_search.Eta e -> string_of_int e
        | r -> Format.asprintf "%a" Eta_search.pp_result r
      in
      row "%-4d %-8d %-8d %-8d %-20s\n" k (Population.num_states p)
        (Mset.size p.Population.leaders)
        (1 lsl k) eta)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  section "E4" "Lemma 3.2 — exact stable-set bases vs the beta bound";
  row "%-22s %-4s %-10s %-10s %-10s %-10s %-18s\n" "protocol" "n" "|SC0|" "norm0"
    "|SC1|" "norm1" "log2 beta(n)";
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        let n = Population.num_states p in
        let a = Stable_sets.analyse p in
        let beta_str =
          let lg = Factorial_bounds.beta_log2 n in
          if Bignat.bits lg <= 40 then Bignat.to_string lg
          else Printf.sprintf "~2^%d" (Bignat.log2_floor lg)
        in
        row "%-22s %-4d %-10d %-10d %-10d %-10d %-18s\n" name n
          (Downset.size a.Stable_sets.stable0)
          (Downset.norm a.Stable_sets.stable0)
          (Downset.size a.Stable_sets.stable1)
          (Downset.norm a.Stable_sets.stable1)
          beta_str)
    [
      "flock-succinct-1"; "flock-succinct-2"; "flock-succinct-3"; "flock-succinct-6";
      "threshold-binary-5"; "threshold-binary-11"; "threshold-unary-4";
      "majority"; "mod-3-1"; "leader-counter-2";
    ]

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  section "E5" "Corollary 5.7 — Pottier bases of potentially realisable multisets";
  row "%-22s %-8s %-12s %-12s %-16s\n" "protocol" "|basis|" "max |pi|" "max input"
    "xi/2 bound";
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        if Population.is_leaderless p then begin
          let basis = Potential.basis p in
          let max_size =
            List.fold_left (fun acc pi -> Stdlib.max acc (Potential.size pi)) 0 basis
          in
          let max_input =
            List.fold_left (fun acc pi -> Stdlib.max acc (Potential.min_input p pi)) 0 basis
          in
          let xi = Factorial_bounds.xi_of_protocol p in
          let xi_str =
            if Bignat.bits xi <= 40 then Bignat.to_string (Bignat.div xi Bignat.two)
            else Printf.sprintf "~2^%d" (Bignat.log2_floor xi - 1)
          in
          row "%-22s %-8d %-12d %-12d %-16s  bounds hold: %b\n" name
            (List.length basis) max_size max_input xi_str
            (Potential.check_corollary_5_7 p basis)
        end)
    [
      "flock-succinct-1"; "flock-succinct-2"; "flock-succinct-3";
      "threshold-binary-3"; "threshold-binary-5"; "threshold-unary-3"; "mod-2-0";
    ]

(* ----------------------------------------------------------------- E4p *)

let e4p () =
  (* fixed jobs matrix (not Domain.recommended_domain_count): the
     section's summed work counters must be machine-independent so the
     regression gate can require them exactly; speedup is informational
     and only meaningful on a multi-core host *)
  section "E4p"
    "Parallel backward coverability: stable-set fixpoints over the domain pool";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (r, Obs.Clock.elapsed_s t0)
  in
  row "%-22s %-8s %-10s %-10s %-8s\n" "protocol" "jobs" "wall (s)" "speedup"
    "det-ok";
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        let base = ref None in
        List.iter
          (fun jobs ->
            let a, wall = time (fun () -> Stable_sets.analyse ~jobs p) in
            let a0, wall0 =
              match !base with
              | Some x -> x
              | None ->
                base := Some (a, wall);
                (a, wall)
            in
            (* the acceptance check of the parallel expansion: the
               bases agree byte-for-byte whatever the domain count *)
            let det_ok =
              Downset.equal a.Stable_sets.stable0 a0.Stable_sets.stable0
              && Downset.equal a.Stable_sets.stable1 a0.Stable_sets.stable1
              && Upset.equal a.Stable_sets.unstable0 a0.Stable_sets.unstable0
              && Upset.equal a.Stable_sets.unstable1 a0.Stable_sets.unstable1
            in
            row "%-22s %-8d %-10.2f %-10.2f %b\n" name jobs wall (wall0 /. wall)
              det_ok)
          [ 1; 2; 4 ])
    [ "flock-succinct-5"; "threshold-binary-37" ]

(* ----------------------------------------------------------------- E5p *)

let e5p () =
  section "E5p"
    "Parallel Hilbert bases: Contejean–Devie completion over the domain pool";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (r, Obs.Clock.elapsed_s t0)
  in
  row "%-22s %-8s %-10s %-10s %-8s\n" "protocol" "jobs" "wall (s)" "speedup"
    "det-ok";
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        let base = ref None in
        List.iter
          (fun jobs ->
            let b, wall = time (fun () -> Potential.basis ~jobs p) in
            let b0, wall0 =
              match !base with
              | Some x -> x
              | None ->
                base := Some (b, wall);
                (b, wall)
            in
            (* the acceptance check of the two-phase completion round:
               the basis agrees byte-for-byte whatever the domain
               count *)
            row "%-22s %-8d %-10.2f %-10.2f %b\n" name jobs wall (wall0 /. wall)
              (b = b0))
          [ 1; 2; 4 ])
    [ "threshold-unary-7"; "mod-5-2" ]

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  section "E6" "Lemma 5.4 — saturation witnesses: input 3^j reaches a 1-saturated configuration";
  row "%-22s %-4s %-8s %-10s %-10s %-10s\n" "protocol" "n" "level j" "input 3^j"
    "|sigma|" "3^n bound";
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        if Population.is_leaderless p then begin
          match Saturation.find p with
          | Error msg -> row "%-22s %s\n" name msg
          | Ok w ->
            let n = Population.num_states p in
            row "%-22s %-4d %-8d %-10d %-10d %-10s  (replay ok: %b)\n" name n
              w.Saturation.levels w.Saturation.input
              (List.length w.Saturation.sigma)
              (Bignat.to_string (Factorial_bounds.three_pow n))
              (Saturation.check w)
        end)
    [
      "flock-succinct-1"; "flock-succinct-2"; "flock-succinct-3";
      "flock-succinct-4"; "threshold-binary-5"; "threshold-binary-11";
      "threshold-unary-4"; "mod-3-1";
    ]

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  section "E7" "Busy-beaver search over small protocol spaces (apparent values, cutoff 12)";
  let print_result n r =
    row "n=%d: %d protocols scanned, %d threshold, %d reject-all, apparent BB(%d) = %d\n"
      n r.Busy_beaver.num_protocols r.Busy_beaver.num_threshold
      r.Busy_beaver.num_reject_all n r.Busy_beaver.best_eta;
    List.iter (fun (eta, c) -> row "   eta=%-3d  %d protocols\n" eta c)
      r.Busy_beaver.histogram
  in
  print_result 1 (Busy_beaver.scan ~n:1 ());
  print_result 2 (Busy_beaver.scan ~n:2 ());
  row "n=3: exhaustive scan of %d protocols...\n%!"
    (Busy_beaver.num_deterministic_protocols 3);
  print_result 3 (Busy_beaver.scan ~n:3 ());
  row "n=4: uniform sample of 30000 protocols (seed 5)...\n%!";
  print_result 4 (Busy_beaver.scan ~n:4 ~sample:(30_000, 5) ())

(* ------------------------------------------------------------------ E7p *)

let e7p () =
  let jobs_hi = Stdlib.max 2 (Stdlib.min 4 (Domain.recommended_domain_count ())) in
  section "E7p"
    "Parallel busy-beaver scan: domain sharding, symmetry pruning, packed configs";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (r, Obs.Clock.elapsed_s t0)
  in
  let aggregates (r : Busy_beaver.scan_result) =
    ( r.Busy_beaver.num_protocols, r.Busy_beaver.num_threshold,
      r.Busy_beaver.num_reject_all, r.Busy_beaver.best_eta,
      r.Busy_beaver.histogram )
  in
  row "full n=3 sweep (pruned, packed):\n";
  row "%-8s %-10s %-10s %-8s\n" "jobs" "wall (s)" "speedup" "det-ok";
  let base = ref None in
  List.iter
    (fun jobs ->
      let r, wall = time (fun () -> Busy_beaver.scan ~jobs ~n:3 ()) in
      let r0, wall0 =
        match !base with
        | Some x -> x
        | None ->
          base := Some (r, wall);
          (r, wall)
      in
      (* the acceptance check of the sharding model: aggregates agree
         byte-for-byte whatever the domain count *)
      row "%-8d %-10.2f %-10.2f %b\n" jobs wall (wall0 /. wall)
        (aggregates r = aggregates r0))
    (List.sort_uniq Stdlib.compare [ 1; 2; jobs_hi ]);
  row "\nsymmetry pruning (full n=3 sweep, packed, jobs=1):\n%!";
  let r1, w1 = match !base with Some x -> x | None -> assert false in
  let r_np, w_np =
    time (fun () -> Busy_beaver.scan ~prune:false ~n:3 ())
  in
  row "  off: %.2fs   on: %.2fs   speedup x%.2f   aggregates identical: %b\n"
    w_np w1 (w_np /. w1)
    (aggregates r_np = aggregates r1);
  (* the representation ablation, below the verifier: the same graphs
     built on multisets and on packed ints, timed call by call *)
  let codes = 10_000 in
  row "\npacked configuration graphs (n=3, %d sampled codes, inputs 2..12):\n%!"
    codes;
  let w_ref = ref 0.0 and w_pk = ref 0.0 in
  let graphs = ref 0 and identical = ref true in
  Array.iter
    (fun (assignment, output_bits) ->
      let p = Busy_beaver.protocol_of_code ~n:3 ~assignment ~output_bits in
      for i = 2 to 12 do
        let c0 = Population.initial_single p i in
        let g, w = time (fun () -> Configgraph.explore p c0) in
        let pg, w' = time (fun () -> Configgraph.Packed.explore p c0) in
        w_ref := !w_ref +. w;
        w_pk := !w_pk +. w';
        incr graphs;
        identical :=
          !identical
          && g.Configgraph.succ = pg.Configgraph.Packed.succ
          && Array.for_all Fun.id
               (Array.mapi
                  (fun j c -> Mset.equal c (Configgraph.Packed.config pg j))
                  g.Configgraph.configs)
      done)
    (Array.init codes (Busy_beaver.sample_code ~n:3 ~seed:20260705));
  row "  %d graphs   multiset: %.2fs   packed: %.2fs   speedup x%.2f   \
       graphs identical: %b\n"
    !graphs !w_ref !w_pk (!w_ref /. !w_pk) !identical

(* ----------------------------------------------------------------- E7d *)

let e7d () =
  section "E7d"
    "Distributed busy-beaver scan: lease-based forked workers over the \
     checkpoint ledger (n=3, 30k sample, seed 5)";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (r, Obs.Clock.elapsed_s t0)
  in
  let aggregates (r : Busy_beaver.scan_result) =
    ( r.Busy_beaver.num_protocols, r.Busy_beaver.num_threshold,
      r.Busy_beaver.num_reject_all, r.Busy_beaver.best_eta,
      r.Busy_beaver.histogram )
  in
  let reference, w_seq =
    time (fun () -> Busy_beaver.scan ~n:3 ~sample:(30_000, 5) ())
  in
  row "sequential reference: %.2fs (%d protocols)\n" w_seq
    reference.Busy_beaver.num_protocols;
  (* the acceptance check of the lease model: the index-ordered merge of
     per-process chunk accumulators equals the sequential fold byte for
     byte, whatever the worker count. Wall-clock is honest — on a
     single-core host forked workers time-slice and gain nothing. *)
  row "%-9s %-10s %-10s %-8s %-7s %-6s %s\n" "workers" "wall (s)" "speedup"
    "chunks" "seen" "lost" "ident";
  let base = ref None in
  let w4 = ref 0.0 in
  List.iter
    (fun workers ->
      let plan = Busy_beaver.plan ~n:3 ~sample:(30_000, 5) () in
      let o, wall =
        time (fun () ->
            (* telemetry off explicitly: the bench harness's own metric
               registry being enabled must not flip the default on and
               contaminate the plain rows *)
            Distributed_scan.coordinate ~workers ~telemetry:false ~plan ())
      in
      let w0 = match !base with Some w -> w | None -> base := Some wall; wall in
      if workers = 4 then w4 := wall;
      row "%-9d %-10.2f %-10.2f %-8d %-7d %-6d %b\n" workers wall (w0 /. wall)
        o.Distributed_scan.stats.Dist.Coordinator.chunks_done
        o.Distributed_scan.stats.Dist.Coordinator.workers_seen
        o.Distributed_scan.stats.Dist.Coordinator.workers_lost
        (aggregates o.Distributed_scan.result = aggregates reference))
    [ 1; 2; 4 ];
  (* the fleet telemetry plane, on: metric deltas on every heartbeat,
     batched event forwarding into one merged log, per-worker registry
     behind the exporter. The contract is identical aggregates and
     small wall overhead over the telemetry-off 4-worker row. *)
  (let events_path = Filename.temp_file "bench_e7d" ".events.jsonl" in
   Fun.protect
     ~finally:(fun () -> try Sys.remove events_path with Sys_error _ -> ())
     (fun () ->
       let plan = Busy_beaver.plan ~n:3 ~sample:(30_000, 5) () in
       Obs.Events.start_file events_path;
       let o, wall =
         Fun.protect
           ~finally:(fun () -> Obs.Events.stop ())
           (fun () ->
             time (fun () ->
                 Distributed_scan.coordinate ~workers:4 ~telemetry:true ~plan ()))
       in
       let s = o.Distributed_scan.stats in
       row "\n4 workers with fleet telemetry (heartbeat metric deltas + merged \
            events):\n";
       row
         "  wall %.2fs   overhead vs plain x%.2f   events_forwarded=%d   \
          fleet_rows=%d   identical=%b\n"
         wall
         (if !w4 > 0.0 then wall /. !w4 else 0.0)
         s.Dist.Coordinator.events_forwarded
         (List.length s.Dist.Coordinator.fleet)
         (aggregates o.Distributed_scan.result = aggregates reference)));
  (* fault injection: worker 0 of 3 SIGKILLs itself after 2 chunks; its
     leased chunks go back to the pool and the merged result must still
     be identical *)
  let plan = Busy_beaver.plan ~n:3 ~sample:(30_000, 5) () in
  let o, wall =
    time (fun () ->
        Distributed_scan.coordinate ~workers:3 ~chaos_kill:(0, 2)
          ~telemetry:false ~plan ())
  in
  let s = o.Distributed_scan.stats in
  row "\nkill 1 of 3 workers after 2 chunks:\n";
  row "  wall %.2fs   lost=%d   reassigned=%d   recovered=%b   identical=%b\n"
    wall s.Dist.Coordinator.workers_lost s.Dist.Coordinator.reassigned
    (s.Dist.Coordinator.workers_lost = 1
     && not s.Dist.Coordinator.interrupted)
    (aggregates o.Distributed_scan.result = aggregates reference);
  (* network fault injection: every frame on every connection passes
     through the seeded chaos shim on both sides — drops, duplicates,
     delays, truncations, bit flips, all within a finite per-connection
     budget. Retries, CRC skips and lease regrants absorb the damage;
     the merged result must still be identical. *)
  (let plan = Busy_beaver.plan ~n:3 ~sample:(30_000, 5) () in
   let spec =
     match Dist.Chaos.parse_spec "wild:5" with
     | Ok s -> s
     | Error e -> failwith e
   in
   let o, wall =
     time (fun () ->
         Distributed_scan.coordinate ~workers:3 ~heartbeat_timeout:1.0
           ~telemetry:false ~chaos_net:spec ~plan ())
   in
   let s = o.Distributed_scan.stats in
   row "\n3 workers under --chaos-net wild:5 (seeded frame faults, both sides):\n";
   row
     "  wall %.2fs   corrupt_frames=%d   rejoins=%d   reassigned=%d   \
      identical=%b\n"
     wall s.Dist.Coordinator.corrupt_frames s.Dist.Coordinator.rejoins
     s.Dist.Coordinator.reassigned
     (aggregates o.Distributed_scan.result = aggregates reference));
  (* coordinator crash recovery: the first life checkpoints every chunk
     and is stopped mid-scan; the second life resumes from the lease
     ledger, bumps the epoch, and finishes only the remaining chunks.
     The row is the price of the coordinator dying once. *)
  let ckpt = Filename.temp_file "bench_e7d" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let plan = Busy_beaver.plan ~n:3 ~sample:(30_000, 5) () in
      let m_done = Obs.Metrics.counter "dist.chunks_done" in
      let m_restarts = Obs.Metrics.counter "coordinator.restarts" in
      let base_done = Obs.Metrics.value m_done in
      let base_restarts = Obs.Metrics.value m_restarts in
      let o1, w_first =
        time (fun () ->
            Distributed_scan.coordinate ~workers:3 ~telemetry:false
              ~checkpoint:ckpt ~checkpoint_every_chunks:1
              ~should_stop:(fun () ->
                Obs.Metrics.value m_done - base_done >= 4)
              ~plan ())
      in
      let o2, w_second =
        time (fun () ->
            Distributed_scan.coordinate ~workers:3 ~telemetry:false
              ~checkpoint:ckpt ~checkpoint_every_chunks:1 ~resume:true ~plan ())
      in
      row "\ncoordinator stopped after %d chunks, restarted with --resume:\n"
        o1.Distributed_scan.stats.Dist.Coordinator.chunks_done;
      row
        "  first life %.2fs + recovery %.2fs = %.2fs   restarts=%d   \
         identical=%b\n"
        w_first w_second (w_first +. w_second)
        (Obs.Metrics.value m_restarts - base_restarts)
        (aggregates o2.Distributed_scan.result = aggregates reference))

(* ------------------------------------------------------------------ E8 *)

(* Steps per second per domain of an ensemble batch: interactions (nulls
   included) on the uniform backend, reactions on the Gillespie one. *)
let per_core_rate (e : Ensemble.t) =
  let steps = Array.fold_left (fun n (t : Ensemble.trial) -> n + t.steps) 0 e.trials in
  float_of_int steps /. (e.wall *. float_of_int e.jobs)

let e8 () =
  let jobs_hi = Stdlib.max 2 (Stdlib.min 4 (Domain.recommended_domain_count ())) in
  section "E8"
    (Printf.sprintf
       "Convergence under the uniform scheduler (ensemble, 10 trials; \
        wall-clock on 1 vs %d domains)" jobs_hi);
  row "%-22s %-8s %-10s %-10s %-10s %-10s %-10s %-9s %-10s %s\n" "protocol" "pop"
    "mean" "stddev" "median" "ms(1j)" (Printf.sprintf "ms(%dj)" jobs_hi) "speedup"
    "inter/s" "det-ok";
  let measure ?(trials = 10) ~backend name p input =
    let e1 = Ensemble.run_input ~jobs:1 ~backend ~seed:20260705 ~trials p input in
    let eN =
      Ensemble.run_input ~jobs:jobs_hi ~backend ~seed:20260705 ~trials p input
    in
    (* the acceptance check of the seeding model: aggregates agree
       byte-for-byte whatever the domain count *)
    let det_ok = Ensemble.summary e1 = Ensemble.summary eN in
    let ts = Ensemble.parallel_times e1 in
    let pop =
      String.concat "+" (List.map string_of_int (Array.to_list input))
    in
    (* no trial converging within the budget leaves the time columns empty *)
    let stat f = if ts = [] then "-" else Printf.sprintf "%.2f" (f ts) in
    row "%-22s %-8s %-10s %-10s %-10s %-10.2f %-10.2f %-9.2f %-10.3g %b\n" name pop
      (stat Stats.mean) (stat Stats.stddev) (stat Stats.median)
      (1e3 *. e1.Ensemble.wall) (1e3 *. eN.Ensemble.wall)
      (e1.Ensemble.wall /. eN.Ensemble.wall)
      (per_core_rate e1) det_ok
  in
  List.iter
    (fun (name, pops) ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        List.iter
          (fun pop -> measure ~backend:(Ensemble.uniform ()) name p [| pop |])
          pops)
    [
      ("flock-succinct-4", [ 25; 50; 100; 200; 400 ]);
      ("threshold-binary-13", [ 25; 50; 100; 200; 400 ]);
      ("mod-3-1", [ 25; 50; 100; 200 ]);
    ];
  (* majority's passive-vs-passive drift makes large ties exponentially
     slow under the random scheduler — measure small populations only *)
  let maj = Majority.protocol () in
  List.iter
    (fun (a, b) ->
      measure ~trials:5
        ~backend:(Ensemble.uniform ~max_steps:5_000_000 ())
        "majority" maj [| a; b |])
    [ (15, 10); (30, 20); (60, 40) ]

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  section "E9" "Section 4 pumping — Dickson witnesses against exact thresholds";
  row "%-22s %-10s %-6s %-6s %-8s\n" "protocol" "exact eta" "a" "b" "eta<=a";
  List.iter
    (fun (name, max_input) ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        let eta =
          match Eta_search.find p ~max_input with
          | Eta_search.Eta x -> Some x
          | Eta_search.Always_accepts -> Some 2
          | _ -> None
        in
        (match (eta, Pumping.find_witness p ~max_input) with
         | Some eta, Ok w ->
           row "%-22s %-10d %-6d %-6d %-8b (checked: %b)\n" name eta w.Pumping.a
             w.Pumping.b (eta <= w.Pumping.a) (Pumping.check w)
         | _, Error msg -> row "%-22s %s\n" name msg
         | None, _ -> row "%-22s no exact eta below cutoff\n" name))
    [
      ("flock-succinct-1", 10); ("flock-succinct-2", 12);
      ("threshold-binary-3", 10); ("threshold-binary-5", 12);
      ("threshold-binary-6", 12); ("threshold-unary-3", 10);
      ("leader-counter-1", 8);
    ]

(* ------------------------------------------------------------------ E10 *)

let e10 () =
  section "E10" "The paper's constants (Definitions 3, 6; Lemma 3.2; Theorems 4.5, 5.9)";
  row "%-4s %-14s %-18s %-22s %-20s\n" "n" "3^n" "xi (det.)" "log2 beta = 2(2n+1)!+1"
    "Theorem 5.9 bound";
  List.iter
    (fun n ->
      let lg_beta = Factorial_bounds.beta_log2 n in
      let simple = Factorial_bounds.theorem_5_9_simple n in
      row "%-4d %-14s %-18s %-22s %-20s\n" n
        (Bignat.to_string (Factorial_bounds.three_pow n))
        (Bignat.to_string (Factorial_bounds.xi_deterministic ~num_states:n))
        (if Bignat.bits lg_beta <= 40 then Bignat.to_string lg_beta
         else Printf.sprintf "~2^%d" (Bignat.log2_floor lg_beta))
        (Magnitude.to_string simple))
    [ 2; 3; 4; 5; 6; 8 ];
  row "\nFast Growing Hierarchy at tiny arguments (Theorem 4.5 lives at level F_omega):\n";
  row "%-10s %-14s %-14s %-14s\n" "x" "F_1(x)" "F_2(x)" "F_omega(x)";
  List.iter
    (fun x ->
      let s f = match f with Some v -> string_of_int v | None -> "overflow" in
      row "%-10d %-14s %-14s %-14s\n" x (s (Fgh.f 1 x)) (s (Fgh.f 2 x)) (s (Fgh.f_omega x)))
    [ 1; 2; 3; 4 ];
  row "\nAckermann values / inverse (the leader lower-bound shape):\n";
  List.iter
    (fun m ->
      match Fgh.ackermann m m with
      | Some v -> row "A(%d,%d) = %d\n" m m v
      | None -> row "A(%d,%d) : beyond machine integers\n" m m)
    [ 0; 1; 2; 3; 4 ];
  row "alpha(10^18) = %d\n" (Fgh.inverse_ackermann 1_000_000_000_000_000_000)

(* ------------------------------------------------------------------ E11 *)

let e11 () =
  section "E11" "Lemma 5.2 certificates — machine-checked eta <= a on concrete protocols";
  row "%-22s %-10s %-10s %-6s %-6s %-10s\n" "protocol" "exact eta" "cert. a" "m"
    "b" "validates";
  List.iter
    (fun (name, max_input) ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        let eta =
          match Eta_search.find p ~max_input with
          | Eta_search.Eta x -> string_of_int x
          | Eta_search.Always_accepts -> "<=2"
          | _ -> "?"
        in
        (match Certificate.construct ~seed:7 p with
         | Ok c ->
           row "%-22s %-10s %-10d %-6d %-6d %-10b\n" name eta c.Certificate.a
             c.Certificate.m c.Certificate.b (Certificate.check c)
         | Error msg -> row "%-22s %-10s %s\n" name eta msg))
    [
      ("flock-succinct-1", 10); ("flock-succinct-2", 12); ("flock-succinct-3", 18);
      ("threshold-binary-3", 10); ("threshold-binary-5", 12);
      ("threshold-unary-3", 10);
    ]

(* ------------------------------------------------------------------ E12 *)

let e12 () =
  section "E12" "Controlled bad sequences (Lemma 4.4's engine, Figueira et al. [19])";
  row "dim 1, exact: ";
  List.iter
    (fun d ->
      match Bad_sequences.max_length_exact ~dim:1 ~delta:d ~budget:3_000_000 with
      | Some l -> row "L(1,%d)=%d  " d l
      | None -> row "L(1,%d)=?  " d)
    [ 0; 1; 2; 3; 4; 5 ];
  row "\ndim 2, exact: ";
  List.iter
    (fun d ->
      match Bad_sequences.max_length_exact ~dim:2 ~delta:d ~budget:8_000_000 with
      | Some l -> row "L(2,%d)=%d  " d l
      | None -> row "L(2,%d)>=? (budget)  " d)
    [ 0; 1; 2 ];
  row "\nstaircase lower-bound witness (dim 2): ";
  List.iter
    (fun d ->
      let l = List.length (Bad_sequences.descending_staircase ~delta:d ~max_len:2_000_000) in
      row "delta=%d -> %d  " d l)
    [ 2; 4; 6; 8; 10; 12; 14 ];
  row "\ngreedy (dim 3, delta=1, capped 150): %d\n"
    (List.length (Bad_sequences.greedy_sequence ~dim:3 ~delta:1 ~max_len:150))

(* ------------------------------------------------------------------ E13 *)

let e13 () =
  section "E13" "Presburger fragment compiler (closure under boolean operations, [8])";
  row "%-42s %-8s %-10s\n" "predicate" "states" "verified";
  let grid1 = List.init 8 (fun i -> [| i + 2 |]) in
  let grid2 =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a + b >= 2 then Some [| a; b |] else None)
          (List.init 5 Fun.id))
      (List.init 5 Fun.id)
  in
  List.iter
    (fun (label, pred, inputs) ->
      match Compile.compile pred with
      | Error e -> row "%-42s %s\n" label e
      | Ok p ->
        (match
           Fair_semantics.check_predicate ~max_configs:600_000 p pred ~inputs
         with
        | Fair_semantics.Ok_all n ->
          row "%-42s %-8d on %d inputs\n" label (Population.num_states p) n
        | Fair_semantics.Mismatch (v, _, _) ->
          row "%-42s WRONG at %s\n" label
            (String.concat "," (List.map string_of_int (Array.to_list v)))
        | exception Configgraph.Too_many_configs _ ->
          row "%-42s %-8d (state space too large to verify exhaustively)\n"
            label (Population.num_states p)))
    [
      ("x >= 7", Predicate.threshold_single 7, grid1);
      ("x ≡ 2 (mod 3)", Predicate.Modulo ([| 1 |], 2, 3), grid1);
      ( "x >= 4 ∧ x ≡ 0 (mod 2)",
        Predicate.And (Predicate.threshold_single 4, Predicate.Modulo ([| 1 |], 0, 2)),
        List.init 6 (fun i -> [| i + 2 |]) );
      ("x0 + 2·x1 >= 5", Predicate.Threshold ([| 1; 2 |], 5), grid2);
      ("x0 > x1", Predicate.majority (), grid2);
      ("x0 - x1 ≡ 0 (mod 2)", Predicate.Modulo ([| 1; -1 |], 0, 2), grid2);
      ( "x0 > x1 ∧ x0 + x1 >= 4",
        Predicate.And (Predicate.majority (), Predicate.Threshold ([| 1; 1 |], 4)),
        grid2 );
      ("¬(x0 + x1 >= 3)", Predicate.Not (Predicate.Threshold ([| 1; 1 |], 3)), grid2);
    ]

(* ------------------------------------------------------------------ E14 *)

let e14 () =
  let jobs = Stdlib.max 2 (Stdlib.min 4 (Domain.recommended_domain_count ())) in
  section "E14" "Continuous-time (Gillespie SSA) vs discrete parallel time (8-trial ensembles)";
  row "%-22s %-8s %-16s %-16s %-12s %-12s %s\n" "protocol" "pop" "SSA time (mean)"
    "discrete pt (mean)" "wall (ms)" "react/s" "inter/s";
  List.iter
    (fun (name, pops) ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        List.iter
          (fun pop ->
            let ssa =
              Ensemble.run_input ~jobs ~backend:(Ensemble.gillespie ()) ~seed:7
                ~trials:8 p [| pop |]
            in
            let disc =
              Ensemble.run_input ~jobs ~backend:(Ensemble.uniform ()) ~seed:7
                ~trials:8 p [| pop |]
            in
            let cont = Ensemble.parallel_times ssa in
            let dts = Ensemble.parallel_times disc in
            row "%-22s %-8d %-16.2f %-16.2f %-12.2f %-12.3g %.3g\n" name pop
              (if cont = [] then nan else Stats.mean cont)
              (if dts = [] then nan else Stats.mean dts)
              (1e3 *. (ssa.Ensemble.wall +. disc.Ensemble.wall))
              (per_core_rate ssa) (per_core_rate disc))
          pops)
    [ ("flock-succinct-4", [ 50; 100; 200 ]); ("threshold-binary-13", [ 50; 100; 200 ]) ]

(* ------------------------------------------------------------------ E15 *)

let e15 () =
  section "E15" "Section 4.1's f(n): min input reaching All_1, maximised over protocols";
  let print n =
    let r = Busy_beaver.scan ~analysis:All_1 ~n () in
    row
      "n=%d: %d protocols, f(%d) = %d (apparent, cutoff 12); %d never reach All_1\n"
      n r.Busy_beaver.num_protocols n r.Busy_beaver.best_eta
      r.Busy_beaver.num_reject_all;
    if r.Busy_beaver.num_aborted > 0 then
      row "   unknown (exploration over budget): %d protocols\n"
        r.Busy_beaver.num_aborted;
    List.iter
      (fun (i, c) -> row "   min accepting input %-3d %d protocols\n" i c)
      r.Busy_beaver.histogram
  in
  print 1;
  print 2;
  row "n=3: exhaustive...\n%!";
  print 3;
  row "(leaderless f stays tiny — consistent with f(n) ∈ 2^O(n) [10]; the\n\
       non-elementary growth the paper cites needs leaders, out of enumeration reach)\n"

(* ------------------------------------------------------------------ E16 *)

(* The cost of the observability stack itself: the same scan bare, with
   the structured event log + exact profile (the low-overhead pair
   meant to stay on for long runs — the <5% acceptance number), and
   with the trace sink added on top (which writes one JSON line per
   span, so its cost scales with span count and dominates). Aggregates
   must be identical in every configuration — the instrumentation may
   not perturb results. Each configuration is timed twice and the
   minimum kept, squeezing scheduler noise out of the ratios. *)
let e16 () =
  section "E16"
    "Instrumentation overhead: scan bare vs --events + --profile vs + --trace";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (r, Obs.Clock.elapsed_s t0)
  in
  let best_of_2 f =
    let r, w1 = time f in
    let _, w2 = time f in
    (r, Float.min w1 w2)
  in
  let scan () = Busy_beaver.scan ~n:3 ~sample:(20_000, 11) () in
  let aggregates (r : Busy_beaver.scan_result) =
    ( r.Busy_beaver.num_protocols, r.Busy_beaver.num_threshold,
      r.Busy_beaver.num_reject_all, r.Busy_beaver.best_eta,
      r.Busy_beaver.histogram )
  in
  let r_bare, w_bare = best_of_2 scan in
  let events_f = Filename.temp_file "ppbench-e16" ".events.jsonl" in
  let trace_f = Filename.temp_file "ppbench-e16" ".trace.json" in
  let profile_f = Filename.temp_file "ppbench-e16" ".folded" in
  Obs.Events.start_file events_f;
  Obs.Trace.start_profile profile_f;
  let r_ep, w_ep = best_of_2 scan in
  Obs.Trace.start_file trace_f;
  let r_full, w_full = best_of_2 scan in
  ignore (Obs.Trace.stop ());
  Obs.Trace.stop_profile ();
  Obs.Events.stop ();
  let lines path =
    In_channel.with_open_text path (fun ic ->
        let n = ref 0 in
        String.iter (fun c -> if c = '\n' then incr n) (In_channel.input_all ic);
        !n)
  in
  let overhead w = 100.0 *. ((w /. w_bare) -. 1.0) in
  row
    "n=3, 20k sample: bare %.2fs; --events --profile %.2fs (%+.1f%%); \
     + --trace %.2fs (%+.1f%%)\n"
    w_bare w_ep (overhead w_ep) w_full (overhead w_full);
  row "aggregates identical across all configurations: %b\n"
    (aggregates r_bare = aggregates r_ep
    && aggregates r_bare = aggregates r_full);
  row "recorded: %d event lines, %d trace lines, %d profile paths\n"
    (lines events_f) (lines trace_f) (lines profile_f);
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ events_f; trace_f; profile_f ]

(* ------------------------------------------------------------ ablations *)

let ablations () =
  section "ablations" "design-choice ablations (DESIGN.md §5)";

  row "\nA. Contejean–Devie scalar-product criterion (Hilbert basis search):\n";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (r, Obs.Clock.elapsed_s t0)
  in
  (* candidate counts come straight from the engine's own counter — the
     same cell hilbert_basis.ml publishes, re-registered here by name *)
  let c_cand = Obs.Metrics.counter "hilbert.candidates" in
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> ()
      | Some e ->
        let p = e.Catalog.build () in
        let sys = Potential.system p in
        let cand0 = Obs.Metrics.value c_cand in
        let with_c, t_with =
          time (fun () -> List.length (Hilbert_basis.solve_geq sys))
        in
        let cand_with = Obs.Metrics.value c_cand - cand0 in
        let cand1 = Obs.Metrics.value c_cand in
        let without, t_without =
          time (fun () ->
              match
                Hilbert_basis.solve_geq ~scalar_criterion:false
                  ~max_candidates:400_000 sys
              with
              | basis -> Printf.sprintf "%d elements" (List.length basis)
              | exception Obs.Budget.Exceeded _ ->
                "diverges (400k-candidate budget hit)")
        in
        let cand_without = Obs.Metrics.value c_cand - cand1 in
        row
          "  %-20s criterion on: %d elements %.3fs (%d candidates)   off: %s \
           %.3fs (%d candidates)\n"
          name with_c t_with cand_with without t_without cand_without)
    [ "flock-succinct-1"; "flock-succinct-2" ];

  row "\nB. Karatsuba multiplication threshold (Bignat):\n";
  let big = Bignat.factorial 4000 in
  let _, t_kara = time (fun () -> Bignat.mul big big) in
  let _, t_school = time (fun () -> Bignat.mul_schoolbook big big) in
  row "  4000! squared (%d bits): karatsuba %.4fs, schoolbook %.4fs (x%.1f)\n"
    (Bignat.bits big) t_kara t_school (t_school /. t_kara);

  row "\nC. Simulator quiet-window sensitivity (flock-succinct-4, pop 100):\n";
  List.iter
    (fun window ->
      let ts =
        Ensemble.parallel_times
          (Ensemble.run_input ~jobs:1
             ~backend:(Ensemble.uniform ~quiet_window:window ())
             ~seed:99 ~trials:10 (Flock.succinct 4) [| 100 |])
      in
      row "  window %-6.0f convergence estimate: %s\n" window (Stats.summary ts))
    [ 4.0; 16.0; 64.0; 256.0 ];

  row "\nD. Certificate scale m (flock-succinct-2): larger m inflates the bound a:\n";
  List.iter
    (fun seed ->
      match Certificate.construct ~seed (Flock.succinct 2) with
      | Ok c ->
        row "  seed %-3d m = %-3d a = %-4d (valid: %b)\n" seed c.Certificate.m
          c.Certificate.a (Certificate.check c)
      | Error e -> row "  seed %-3d %s\n" seed e)
    [ 1; 7; 13 ]

(* ------------------------------------------------------- timing benches *)

(* ns/run estimates of the last [timings] run, for the --json report *)
let timing_results : (string * float) list ref = ref []

let timings () =
  section "timings" "bechamel micro-benchmarks";
  let open Bechamel in
  let sim_bench =
    Test.make ~name:"simulate flock-succinct-4 pop=100"
      (Staged.stage (fun () ->
           let rng = Splitmix64.create 5 in
           ignore (Simulator.run_input ~rng (Flock.succinct 4) [| 100 |])))
  in
  let eta_bench =
    Test.make ~name:"exact eta of threshold-binary-6"
      (Staged.stage (fun () -> ignore (Eta_search.find (Threshold.binary 6) ~max_input:10)))
  in
  let cover_bench =
    Test.make ~name:"stable sets of threshold-binary-11"
      (Staged.stage (fun () -> ignore (Stable_sets.analyse (Threshold.binary 11))))
  in
  let hilbert_bench =
    Test.make ~name:"Pottier basis of flock-succinct-3"
      (Staged.stage (fun () -> ignore (Potential.basis (Flock.succinct 3))))
  in
  let saturation_bench =
    Test.make ~name:"saturation witness of flock-succinct-4"
      (Staged.stage (fun () -> ignore (Saturation.find (Flock.succinct 4))))
  in
  let bignat_bench =
    Test.make ~name:"bignat: 2000! and a 64-limb divmod"
      (Staged.stage (fun () ->
           let f = Bignat.factorial 2000 in
           ignore (Bignat.divmod f (Bignat.pow (Bignat.of_int 997) 100))))
  in
  let tests =
    [ sim_bench; eta_bench; cover_bench; hilbert_bench; saturation_bench; bignat_bench ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raws ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raws
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] ->
            timing_results := (name, est) :: !timing_results;
            row "%-45s %12.1f ns/run\n" name est
          | _ -> row "%-45s (no estimate)\n" name)
        results)
    tests

(* ----------------------------------------------------------------- main *)

let experiments =
  [
    (* E7d forks worker processes, and OCaml 5 forbids Unix.fork in any
       process that has ever spawned a domain — so it must run before
       the domain-using sections (E4p, E5p, E7p, E8, ...). Keep it
       first here, and first on the command line of any explicit
       section list that includes it. *)
    ("E7d", e7d);
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E4p", e4p); ("E5", e5);
    ("E5p", e5p); ("E6", e6);
    ("E7", e7); ("E7p", e7p); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("ablations", ablations); ("timings", timings);
  ]

let () =
  let rec split_opt key acc = function
    | [] -> (None, List.rev acc)
    | x :: value :: rest when x = key -> (Some value, List.rev_append acc rest)
    | x :: rest -> split_opt key (x :: acc) rest
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path, args = split_opt "--json" [] args in
  let history_dir, names = split_opt "--history" [] args in
  let requested = if names = [] then List.map fst experiments else names in
  let records = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        (* every section runs with engine counters recording, except the
           timings section, which must measure the instrumentation's
           disabled-by-default cost *)
        Obs.Metrics.set_enabled (name <> "timings");
        (* hermetic sections: zero every metric cell and the
           cross-section stable-set memo, so a section's diff — and
           with it the regression gate — does not depend on which
           sections ran before it. In particular the last-writer
           stable_sets.{basis,norm}*_size gauges appear in a section
           exactly when that section wrote them. *)
        Obs.Metrics.reset ();
        Stable_sets.memo_clear ();
        let before = Obs.Metrics.snapshot () in
        let t0 = Obs.Clock.now_ns () in
        f ();
        let wall = Obs.Clock.elapsed_s t0 in
        let counters = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
        Obs.Metrics.set_enabled false;
        records := (name, wall, counters) :: !records
      | None ->
        Printf.eprintf "unknown section %s (have: %s)\n" name
          (String.concat " " (List.map fst experiments)))
    requested;
  if json_path <> None || history_dir <> None then begin
    let run =
      {
        Obs.History.meta = Some (Obs.Run_meta.collect ());
        sections =
          List.rev_map
            (fun (id, wall_s, metrics) ->
              (id, { Obs.History.wall_s; metrics }))
            !records;
        timings = List.rev !timing_results;
      }
    in
    (match json_path with
     | None -> ()
     | Some path ->
       Out_channel.with_open_text path (fun oc ->
           Out_channel.output_string oc
             (Obs.Json.to_string (Obs.History.run_to_json run));
           Out_channel.output_char oc '\n');
       Printf.eprintf "wrote %s\n%!" path);
    match history_dir with
    | None -> ()
    | Some dir ->
      Obs.History.append ~dir run;
      Printf.eprintf "appended to %s\n%!" (Obs.History.ledger_file dir)
  end
