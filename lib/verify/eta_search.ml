type result =
  | Eta of int
  | Always_accepts
  | Always_rejects
  | Not_threshold of int array * Fair_semantics.verdict

let pp_result fmt = function
  | Eta eta -> Format.fprintf fmt "eta = %d" eta
  | Always_accepts -> Format.pp_print_string fmt "accepts all checked inputs"
  | Always_rejects -> Format.pp_print_string fmt "rejects all checked inputs"
  | Not_threshold (v, verdict) ->
    Format.fprintf fmt "not a threshold protocol (input %s: %a)"
      (String.concat "," (Array.to_list (Array.map string_of_int v)))
      Fair_semantics.pp_verdict verdict

let m_inputs = Obs.Metrics.counter "eta_search.inputs_checked"
let m_stable_hits = Obs.Metrics.counter "eta_search.stable_hits"

(* Scan upwards; record where the output flips to 1 and insist it
   never flips back. *)
let sweep inputs decide =
  let rec go flipped = function
    | [] ->
      (match flipped with
       | Some eta -> if eta = List.hd inputs then Always_accepts else Eta eta
       | None -> Always_rejects)
    | i :: rest ->
      Obs.Metrics.incr m_inputs;
      (match decide i with
       | Fair_semantics.Decides true ->
         go (match flipped with Some _ -> flipped | None -> Some i) rest
       | Fair_semantics.Decides false ->
         (match flipped with
          | Some _ -> Not_threshold ([| i |], Fair_semantics.Decides false)
          | None -> go None rest)
       | verdict -> Not_threshold ([| i |], verdict))
  in
  if inputs = [] then
    invalid_arg "Eta_search.sweep: no valid inputs below the cutoff";
  go None inputs

let find ?max_configs ?(jobs = 1) ?(stable = `Off) p ~max_input =
  if Array.length p.Population.input_vars <> 1 then
    invalid_arg "Eta_search.find: single-input protocols only";
  (* Stable-set shortcut: the analysis is a property of the protocol,
     not of the input, so [`Memo] pays for the two backward fixpoints
     once and answers every subsequent input from the cache; the
     [`Per_input] strawman recomputes them per input (the tests compare
     the two by counter to certify the memoization saves real work). If
     [IC(i)] already lies in [SC_b], every fair execution from it stays
     in consensus [b] (Definition 2), so the verdict is [Decides b]
     without building the configuration graph. *)
  let analysis =
    match stable with
    | `Off -> None
    | `Per_input -> Some (fun () -> Stable_sets.analyse ~jobs p)
    | `Memo -> Some (fun () -> Stable_sets.analyse_memo ~jobs p)
  in
  let decide_input i =
    let c0 = Population.initial_config p [| i |] in
    let shortcut =
      match analysis with
      | None -> None
      | Some get ->
        let a = get () in
        if Downset.mem c0 a.Stable_sets.stable1 then
          Some (Fair_semantics.Decides true)
        else if Downset.mem c0 a.Stable_sets.stable0 then
          Some (Fair_semantics.Decides false)
        else None
    in
    match shortcut with
    | Some verdict ->
      Obs.Metrics.incr m_stable_hits;
      verdict
    | None ->
      Fair_semantics.decide_config ?max_configs p c0
  in
  let inputs = Fair_semantics.valid_inputs_single p ~max:max_input in
  let total = List.length inputs in
  let progress = Obs.Progress.create "eta_search.find" in
  let checked = ref 0 in
  let decide i =
    Obs.Progress.tick progress (fun () ->
        Printf.sprintf "input %d (%d/%d checked)" i !checked total);
    let verdict = decide_input i in
    incr checked;
    verdict
  in
  match inputs with
  | [] -> invalid_arg "Eta_search.find: no valid inputs below the cutoff"
  | _ ->
    Obs.Trace.with_span "eta_search.find" ~cat:"verify"
      ~args:[ ("protocol", p.Population.name); ("max_input", string_of_int max_input) ]
      (fun () ->
        let r = sweep inputs decide in
        Obs.Progress.finish progress (fun () ->
            Format.asprintf "%a" pp_result r);
        r)
