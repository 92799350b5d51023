let rebuild ~name ~states ~transitions ~leaders ~inputs ~output =
  Population.make ~name ~states ~transitions ~leaders ~inputs ~output ()

let quad_of_transition { Population.pre = a, b; post = a', b' } = (a, b, a', b')

let complement (p : Population.t) =
  rebuild
    ~name:(p.Population.name ^ "-complement")
    ~states:(Array.copy p.Population.states)
    ~transitions:(Array.to_list (Array.map quad_of_transition p.Population.transitions))
    ~leaders:
      (List.filter_map
         (fun q ->
           let k = Mset.get p.Population.leaders q in
           if k > 0 then Some (q, k) else None)
         (List.init (Population.num_states p) Fun.id))
    ~inputs:
      (Array.to_list
         (Array.mapi (fun x s -> (p.Population.input_vars.(x), s)) p.Population.input_map))
    ~output:(Array.map not p.Population.output)

let coverable_states (p : Population.t) =
  let d = Population.num_states p in
  let in_set = Array.make d false in
  Array.iter (fun s -> in_set.(s) <- true) p.Population.input_map;
  List.iter
    (fun q -> if Mset.get p.Population.leaders q > 0 then in_set.(q) <- true)
    (List.init d Fun.id);
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun { Population.pre = a, b; post = a', b' } ->
        if in_set.(a) && in_set.(b) then begin
          if not in_set.(a') then begin
            in_set.(a') <- true;
            changed := true
          end;
          if not in_set.(b') then begin
            in_set.(b') <- true;
            changed := true
          end
        end)
      p.Population.transitions
  done;
  in_set

let restrict_to_coverable (p : Population.t) =
  let keep = coverable_states p in
  let d = Population.num_states p in
  if Array.for_all Fun.id keep then p
  else begin
    let remap = Array.make d (-1) in
    let next = ref 0 in
    for q = 0 to d - 1 do
      if keep.(q) then begin
        remap.(q) <- !next;
        incr next
      end
    done;
    let states =
      Array.of_list
        (List.filter_map
           (fun q -> if keep.(q) then Some p.Population.states.(q) else None)
           (List.init d Fun.id))
    in
    let transitions =
      Array.to_list p.Population.transitions
      |> List.filter_map (fun { Population.pre = a, b; post = a', b' } ->
             if keep.(a) && keep.(b) && keep.(a') && keep.(b') then
               Some (remap.(a), remap.(b), remap.(a'), remap.(b'))
             else None)
    in
    let leaders =
      List.filter_map
        (fun q ->
          let k = Mset.get p.Population.leaders q in
          if k > 0 && keep.(q) then Some (remap.(q), k) else None)
        (List.init d Fun.id)
    in
    let inputs =
      Array.to_list
        (Array.mapi
           (fun x s -> (p.Population.input_vars.(x), remap.(s)))
           p.Population.input_map)
    in
    let output =
      Array.of_list
        (List.filter_map
           (fun q -> if keep.(q) then Some p.Population.output.(q) else None)
           (List.init d Fun.id))
    in
    rebuild
      ~name:(p.Population.name ^ "-restricted")
      ~states ~transitions ~leaders ~inputs ~output
  end

let relabel (p : Population.t) f =
  let d = Population.num_states p in
  let states = Array.init d f in
  let seen = Hashtbl.create d in
  Array.iter
    (fun s ->
      if Hashtbl.mem seen s then
        invalid_arg "Transform.relabel: duplicate state name";
      Hashtbl.add seen s ())
    states;
  rebuild ~name:p.Population.name ~states
    ~transitions:(Array.to_list (Array.map quad_of_transition p.Population.transitions))
    ~leaders:
      (List.filter_map
         (fun q ->
           let k = Mset.get p.Population.leaders q in
           if k > 0 then Some (q, k) else None)
         (List.init d Fun.id))
    ~inputs:
      (Array.to_list
         (Array.mapi (fun x s -> (p.Population.input_vars.(x), s)) p.Population.input_map))
    ~output:(Array.copy p.Population.output)
