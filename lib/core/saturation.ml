type witness = {
  protocol : Population.t;
  levels : int;
  input : int;
  sigma : int list;
  result : Mset.t;
}

let input_state p =
  if Array.length p.Population.input_vars <> 1 then
    invalid_arg "Saturation: single-input protocols only";
  p.Population.input_map.(0)

(* Lemma 5.3: a transition enabled inside the support that moves an agent
   outside it. *)
let expanding_transition p support =
  let in_support q = List.mem q support in
  let nt = Population.num_transitions p in
  let rec go i =
    if i >= nt then None
    else begin
      let { Population.pre = a, b; post = a', b' } = p.Population.transitions.(i) in
      if in_support a && in_support b && not (in_support a' && in_support b') then
        Some i
      else go (i + 1)
    end
  in
  go 0

let find p =
  if not (Population.is_leaderless p) then Error "protocol has leaders"
  else if Array.length p.Population.input_vars <> 1 then
    Error "protocol has several input variables"
  else begin
    let d = Population.num_states p in
    let coverable = Transform.coverable_states p in
    match List.filter (fun q -> not coverable.(q)) (List.init d Fun.id) with
    | _ :: _ as dead ->
      Error
        ("states not coverable: "
        ^ String.concat ", " (List.map (Population.state_name p) dead))
    | [] ->
      (* Build C_0 = x, C_{k+1} = 3·C_k + Δ_t per the proof of Lemma 5.4. *)
      let x = input_state p in
      let rec build k config sigma =
        let support = Mset.support config in
        if List.length support = d then
          Ok { protocol = p; levels = k; input = Mset.size config; sigma = List.rev sigma; result = config }
        else begin
          match expanding_transition p support with
          | None ->
            Error "no expanding transition (unreachable: support closure was full)"
          | Some t ->
            let tripled = Mset.scale 3 config in
            (match Mset.add_delta tripled (Population.displacement p t) with
             | None -> Error "expanding transition not enabled on tripled configuration"
             | Some next ->
               (* σ_{k+1} = σ_k³ t, built in reverse *)
               let sigma' = t :: (sigma @ sigma @ sigma) in
               build (k + 1) next sigma')
        end
      in
      build 0 (Mset.singleton d x) []
  end

let replay p ~input sigma =
  let c0 = Mset.scale input (Mset.singleton (Population.num_states p) (input_state p)) in
  let rec go c = function
    | [] -> Some c
    | t :: rest ->
      (match Population.fire_opt p c t with
       | Some c' -> go c' rest
       | None -> None)
  in
  go c0 sigma

let replay_scaled w m =
  if m < 1 then invalid_arg "Saturation.replay_scaled: m >= 1 required";
  let rec repeat k acc = if k = 0 then acc else repeat (k - 1) (acc @ w.sigma) in
  replay w.protocol ~input:(m * w.input) (repeat m [])

let check w =
  let d = Population.num_states w.protocol in
  let pow3 =
    let rec go k acc = if k = 0 then acc else go (k - 1) (3 * acc) in
    go w.levels 1
  in
  w.input = pow3
  && List.length w.sigma = (w.input - 1) / 2
  && (match replay w.protocol ~input:w.input w.sigma with
     | Some c -> Mset.equal c w.result && List.length (Mset.support c) = d
     | None -> false)
