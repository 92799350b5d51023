(* The exact analyses behind `ppverify` / `ppanalyse`, one domain each:
   threshold search on the packed and the multiset configuration
   graphs, the stable sets of Lemma 3.2, and the Pottier basis of
   Corollary 5.7. Every task is fixed; the seed is ignored. *)

open Outcome
open Verdicts

(* (task, protocol, max_input, expected eta) *)
let eta_tasks =
  [ ("eta_packed", "flock-succinct-4", 56, 16); ("eta_multiset", "threshold-binary-37", 60, 37) ]

let eta_digest = function
  | Eta_search.Eta e -> Printf.sprintf "eta=%d" e
  | r -> Format.asprintf "%a" Eta_search.pp_result r

let eta_steps ~seed:_ ~tmp:_ =
  List.map
    (fun (task, name, max_input, expected) ->
      let p, _ = catalog name in
      {
        name = task;
        ops = 1;
        run =
          (fun () ->
            let r = Eta_search.find p ~max_input in
            fun () ->
              verdict ~ops:1 ~digest:(eta_digest r)
                [
                  check
                    (Printf.sprintf "eta of %s" name)
                    (r = Eta_search.Eta expected)
                    (eta_digest r);
                ]);
      })
    eta_tasks

let sp_task = Spans.name "analyse.task"
let sp_explore_multiset = Spans.name "configgraph.explore_multiset"

(* Traced eta search: Eta_search.find's default path — incremental
   exploration, bottom components judged as Tarjan pops them, stopping
   at the first one without consensus — driven input by input. *)
let eta_traced ~seed:_ ~tmp:_ =
  let cnt = counts () in
  let packed_configs = ref 0 and multiset_configs = ref 0 in
  let t0 = now_s () in
  let calls =
    List.mapi
      (fun ti (task, name, max_input, expected) ->
        let p, _ = catalog name in
        let t_call = now_s () in
        let r =
          Spans.with_span sp_task ~req:ti (fun () ->
              Spans.with_span sp_eta ~req:ti (fun () ->
                  let inputs = Fair_semantics.valid_inputs_single p ~max:max_input in
                  cnt.inputs <- cnt.inputs + List.length inputs;
                  let decide i =
                    let c0 = Population.initial_config p [| i |] in
                    let seen = ref None and conflict = ref false and undecided = ref false in
                    let judge out =
                      Spans.with_span sp_verdict ~req:ti (fun () ->
                          cnt.bottoms <- cnt.bottoms + 1;
                          match out with
                          | None ->
                            undecided := true;
                            `Stop
                          | Some b ->
                            (match !seen with
                             | None -> seen := Some b
                             | Some b' -> if b <> b' then conflict := true);
                            `Continue)
                    in
                    let before = Layers.counter "configgraph.configs" in
                    let sccs, tally =
                      if Configgraph.Packed.applicable p c0 then begin
                        let d = Population.num_states p in
                        let tbl = support_table p in
                        let output = packed_output ~d tbl in
                        ( Spans.with_span sp_explore_packed ~req:ti (fun () ->
                              Configgraph.Packed.explore_sccs p c0 ~on_bottom:(fun members ->
                                  judge (component_output output members))),
                          packed_configs )
                      end
                      else
                        ( Spans.with_span sp_explore_multiset ~req:ti (fun () ->
                              Configgraph.explore_sccs p c0 ~on_bottom:(fun members ->
                                  judge
                                    (component_output
                                       (Population.output_of_config p) members))),
                          multiset_configs )
                    in
                    tally := !tally + Layers.counter "configgraph.configs" - before;
                    cnt.decisions <- cnt.decisions + 1;
                    cnt.sccs <- cnt.sccs + sccs;
                    if !undecided || !conflict then None else !seen
                  in
                  eta_sweep ~decide inputs))
        in
        let digest =
          match r with
          | Eta e -> eta_digest (Eta_search.Eta e)
          | Accepts_all -> eta_digest Eta_search.Always_accepts
          | Rejects_all -> eta_digest Eta_search.Always_rejects
          | Not_threshold -> "not a threshold protocol"
        in
        let ok = r = Eta expected in
        {
          call = task;
          wall_s = now_s () -. t_call;
          ops = 1;
          failed = (if ok then 0 else 1);
          checks = [ check (Printf.sprintf "eta of %s" name) ok digest ];
          digest;
        })
      eta_tasks
  in
  let layers rows layers ~share =
    let self = self_s rows in
    Layers.seti layers "eta_search.calls" rows.(sp_eta).Spans.calls;
    Layers.seti layers "eta_search.inputs" cnt.inputs;
    Layers.set layers "eta_search.self_share" (share (self sp_eta));
    Layers.copy_counters layers
      [ "configgraph.explorations"; "configgraph.configs"; "configgraph.edges" ];
    Layers.set layers "configgraph.nodes_per_graph"
      (Layers.ratio
         (float_of_int (Layers.counter "configgraph.configs"))
         (float_of_int (Layers.counter "configgraph.explorations")));
    Layers.set layers "configgraph.packed.configs_per_s"
      (Layers.ratio (float_of_int !packed_configs) (self sp_explore_packed));
    Layers.set layers "configgraph.multiset.configs_per_s"
      (Layers.ratio (float_of_int !multiset_configs) (self sp_explore_multiset));
    Layers.set layers "configgraph.explore_share"
      (share (self sp_explore_packed +. self sp_explore_multiset));
    Layers.seti layers "fair.decisions" cnt.decisions;
    Layers.seti layers "fair.sccs" cnt.sccs;
    Layers.seti layers "fair.bottom_sccs" cnt.bottoms;
    Layers.set layers "fair_semantics.verdict_share" (share (self sp_verdict));
    [
      ("configgraph.packed.configs", string_of_int !packed_configs);
      ("configgraph.multiset.configs", string_of_int !multiset_configs);
    ]
  in
  { t_calls = calls; t_wall_s = now_s () -. t0; t_layers = layers }

(* ------------------------------------------------------- stable sets *)

let stable_protocol = "threshold-binary-37"

let stable_digest ~sc0 ~sc1 ~norm0 ~norm1 =
  Printf.sprintf "|SC0|=%d |SC1|=%d norm0=%d norm1=%d" sc0 sc1 norm0 norm1

let stable_verdict stable0 stable1 =
  let sc0 = Downset.size stable0 and sc1 = Downset.size stable1 in
  verdict ~ops:1
    ~digest:
      (stable_digest ~sc0 ~sc1 ~norm0:(Downset.norm stable0) ~norm1:(Downset.norm stable1))
    [ expect_int "|SC0| of threshold-binary-37" ~expected:285 sc0;
      expect_int "|SC1| of threshold-binary-37" ~expected:1 sc1 ]

let stable_steps ~seed:_ ~tmp:_ =
  let p, _ = catalog stable_protocol in
  [
    {
      name = "stable_sets";
      ops = 1;
      run =
        (fun () ->
          let a = Stable_sets.analyse p in
          fun () -> stable_verdict a.Stable_sets.stable0 a.Stable_sets.stable1);
    };
  ]

let sp_pre_star = Spans.name "backward.pre_star"
let sp_stable = Spans.name "stable_sets.analyse"

(* Traced stable sets: Stable_sets.analyse's two backward fixpoints and
   complements, called one by one. *)
let stable_traced ~seed:_ ~tmp:_ =
  let p, _ = catalog stable_protocol in
  let d = Population.num_states p in
  (* configurations populating a state whose output is not [b] *)
  let bad b =
    Upset.of_elements d
      (List.filter_map
         (fun q -> if p.Population.output.(q) <> b then Some (Mset.singleton d q) else None)
         (List.init d Fun.id))
  in
  let t0 = now_s () in
  let stable0, stable1 =
    Spans.with_span sp_task ~req:0 (fun () ->
        Spans.with_span sp_stable ~req:0 (fun () ->
            let stable b =
              let u = Spans.with_span sp_pre_star ~req:0 (fun () -> Backward.pre_star p (bad b)) in
              Downset.of_max_elements d (Upset.complement u)
            in
            let s0 = stable false in
            (s0, stable true)))
  in
  let wall = now_s () -. t0 in
  let v = stable_verdict stable0 stable1 in
  let layers rows layers ~share =
    let self = self_s rows in
    Layers.copy_counters layers
      [ "backward.generations"; "backward.candidates"; "backward.added"; "backward.pruned" ];
    Layers.set layers "backward.useful_share"
      (Layers.ratio
         (float_of_int (Layers.counter "backward.added"))
         (float_of_int (Layers.counter "backward.candidates")));
    Layers.set layers "backward.share" (share (self sp_pre_star));
    Layers.set layers "stable_sets.share" (share (self sp_stable));
    []
  in
  {
    t_calls =
      [
        {
          call = "stable_sets";
          wall_s = wall;
          ops = 1;
          failed = v.v_failed;
          checks = v.v_checks;
          digest = v.v_digest;
        };
      ];
    t_wall_s = wall;
    t_layers = layers;
  }

(* ----------------------------------------------------------- hilbert *)

let hilbert_protocol = "mod-5-2"

let basis_digest basis =
  let rendered =
    List.sort compare basis
    |> List.map (fun v -> String.concat "," (Array.to_list (Array.map string_of_int v)))
    |> String.concat ";"
  in
  Printf.sprintf "elements=%d md5=%s" (List.length basis) (Digest.to_hex (Digest.string rendered))

let hilbert_verdict p basis =
  verdict ~ops:1 ~digest:(basis_digest basis)
    [
      expect_int "Pottier basis of mod-5-2" ~expected:2_303 (List.length basis);
      check "Corollary 5.7 bounds hold" (Potential.check_corollary_5_7 p basis) "";
    ]

let hilbert_steps ~seed:_ ~tmp:_ =
  let p, _ = catalog hilbert_protocol in
  [
    {
      name = "hilbert";
      ops = 1;
      run =
        (fun () ->
          let basis = Potential.basis p in
          fun () -> hilbert_verdict p basis);
    };
  ]

let sp_system = Spans.name "potential.system"
let sp_solve = Spans.name "hilbert.solve_geq"

(* Traced Hilbert basis: Potential.basis is the system of Section 5.4
   handed to Hilbert_basis.solve_geq. *)
let hilbert_traced ~seed:_ ~tmp:_ =
  let p, _ = catalog hilbert_protocol in
  let t0 = now_s () in
  let basis =
    Spans.with_span sp_task ~req:0 (fun () ->
        let sys = Spans.with_span sp_system ~req:0 (fun () -> Potential.system p) in
        Spans.with_span sp_solve ~req:0 (fun () -> Hilbert_basis.solve_geq sys))
  in
  let wall = now_s () -. t0 in
  let v = hilbert_verdict p basis in
  let layers rows layers ~share =
    let self = self_s rows in
    Layers.copy_counters layers
      [
        "hilbert.candidates"; "hilbert.basis_elements"; "hilbert.pruned_scalar";
        "hilbert.pruned_dominated"; "hilbert.pruned_duplicate";
      ];
    Layers.set layers "hilbert.useful_share"
      (Layers.ratio
         (float_of_int (List.length basis))
         (float_of_int (Layers.counter "hilbert.candidates")));
    Layers.set layers "hilbert.share" (share (self sp_solve +. self sp_system));
    []
  in
  {
    t_calls =
      [
        {
          call = "hilbert";
          wall_s = wall;
          ops = 1;
          failed = v.v_failed;
          checks = v.v_checks;
          digest = v.v_digest;
        };
      ];
    t_wall_s = wall;
    t_layers = layers;
  }

(* The four analyses, one after another. *)
let steps ~seed ~tmp = eta_steps ~seed ~tmp @ stable_steps ~seed ~tmp @ hilbert_steps ~seed ~tmp

let traced ~seed ~tmp =
  List.map (fun part -> part ~seed ~tmp) [ eta_traced; stable_traced; hilbert_traced ]

let sampled = [ sp_task ]
let requests = sampled
