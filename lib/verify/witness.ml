module H = Hashtbl.Make (struct
  type t = Mset.t

  let equal = Mset.equal
  let hash = Mset.hash
end)

let max_configs = 2_000_000

let find p ~src ~target =
  (* BFS recording, for every discovered configuration, the transition
     and predecessor that first reached it. *)
  let parent : (int * Mset.t) option H.t = H.create 1024 in
  let queue = Queue.create () in
  H.add parent src None;
  Queue.add src queue;
  let count = ref 1 in
  let rec trace_back c acc =
    match H.find parent c with
    | None -> acc
    | Some (t, pred) -> trace_back pred (t :: acc)
  in
  let found = ref None in
  (try
     while not (Queue.is_empty queue) do
       let c = Queue.pop queue in
       if target c then begin
         found := Some (trace_back c [], c);
         raise Exit
       end;
       List.iter
         (fun (t, c') ->
           if not (H.mem parent c') then begin
             if !count >= max_configs then
               raise (Configgraph.Too_many_configs max_configs);
             H.add parent c' (Some (t, c));
             incr count;
             Queue.add c' queue
           end)
         (Population.successors p c)
     done
   with Exit -> ());
  !found

let find_config p ~src c =
  Option.map fst (find p ~src ~target:(Mset.equal c))

let replay p c0 sigma =
  let rec go c = function
    | [] -> Some c
    | t :: rest ->
      (match Population.fire_opt p c t with
       | Some c' -> go c' rest
       | None -> None)
  in
  go c0 sigma

let pp_trace p fmt sigma =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i t ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%d: %a" i (Population.pp_transition p)
        p.Population.transitions.(t))
    sigma;
  Format.fprintf fmt "@]"
