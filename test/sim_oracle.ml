(* The per-interaction loops that Event_kernel replaced, kept verbatim
   (minus their metrics) as the statistical oracle for the kernel: the
   uniform scheduler stepping through every interaction, nulls
   included, and the float-propensity SSA. They draw different random
   numbers from the kernel, so tests compare distributions, not runs. *)

module Uniform = struct
  (* Dense lookup from a canonical state pair [(s1, s2)] with [s1 <= s2]
     to the indices of the transitions it enables: slot [s1 * d + s2].
     Direct indexing keeps the hot loop free of hashing and of the [Some]
     allocations a [Hashtbl.find_opt] per interaction would cost — minor
     allocations also force cross-domain GC synchronisation, which is what
     an ensemble's domains contend on. *)
  let pair_table p =
    let d = Population.num_states p in
    let table = Array.make (d * d) [] in
    Array.iteri
      (fun i (tr : Population.transition) ->
        let s1, s2 = tr.pre in
        let slot = (s1 * d) + s2 in
        table.(slot) <- i :: table.(slot))
      p.Population.transitions;
    Array.map (fun l -> Array.of_list (List.rev l)) table

  (* Sample the states of two distinct agents drawn uniformly from the
     population described by [counts]. *)
  let sample_pair rng counts total =
    let pick_index k =
      (* k is a position in 0..total-1 over agents grouped by state *)
      let rec go s acc =
        let acc' = acc + counts.(s) in
        if k < acc' then s else go (s + 1) acc'
      in
      go 0 0
    in
    let k1 = Splitmix64.int_below rng total in
    let s1 = pick_index k1 in
    (* remove agent 1, draw agent 2 from the remaining total-1 *)
    counts.(s1) <- counts.(s1) - 1;
    let k2 = Splitmix64.int_below rng (total - 1) in
    let s2 = pick_index k2 in
    counts.(s1) <- counts.(s1) + 1;
    (s1, s2)

  let status_of ones total : bool option =
    if ones = total then Some true else if ones = 0 then Some false else None

  let run ?(max_steps = 50_000_000) ?(quiet_window = 64.0) ~rng p c0 =
    let d = Population.num_states p in
    let counts = Array.init d (Mset.get c0) in
    let total = Mset.size c0 in
    if total < 2 then invalid_arg "Simulator.run: population size >= 2 required";
    let table = pair_table p in
    let ones = ref 0 in
    Array.iteri (fun s c -> if p.Population.output.(s) then ones := !ones + c) counts;
    let quiet_steps =
      int_of_float (quiet_window *. float_of_int total) |> Stdlib.max 1
    in
    let last_change = ref 0 in
    let status = ref (status_of !ones total) in
    let step = ref 0 in
    let finished = ref false in
    (* [sample_pair], inlined to avoid boxing a tuple per interaction;
       the RNG draw sequence is identical *)
    let pick_index k =
      let rec go s acc =
        let acc' = acc + counts.(s) in
        if k < acc' then s else go (s + 1) acc'
      in
      go 0 0
    in
    let adjust s delta =
      counts.(s) <- counts.(s) + delta;
      if p.Population.output.(s) then ones := !ones + delta
    in
    while (not !finished) && !step < max_steps do
      incr step;
      let s1 = pick_index (Splitmix64.int_below rng total) in
      counts.(s1) <- counts.(s1) - 1;
      let s2 = pick_index (Splitmix64.int_below rng (total - 1)) in
      counts.(s1) <- counts.(s1) + 1;
      let slot = if s1 <= s2 then (s1 * d) + s2 else (s2 * d) + s1 in
      let trs = table.(slot) in
      if Array.length trs > 0 then begin
        let i =
          if Array.length trs = 1 then trs.(0)
          else trs.(Splitmix64.int_below rng (Array.length trs))
        in
        let { Population.post = p1, p2; _ } = p.Population.transitions.(i) in
        adjust s1 (-1);
        adjust s2 (-1);
        adjust p1 1;
        adjust p2 1
      end;
      let status' = status_of !ones total in
      if status' <> !status then begin
        status := status';
        last_change := !step
      end;
      if !step - !last_change >= quiet_steps && !status <> None then finished := true
    done;
    {
      Simulator.steps = !step;
      last_change = !last_change;
      output = !status;
      final = Mset.of_array counts;
      converged = !finished;
    }

  let run_input ?max_steps ?quiet_window ~rng p v =
    run ?max_steps ?quiet_window ~rng p (Population.initial_config p v)
end

module Ssa = struct
  let status_of = Uniform.status_of

  let is_identity p t = Intvec.norm1 (Population.displacement p t) = 0

  (* Unscaled mass-action propensity of transition [t]: #a·#b, or
     #a·(#a-1)/2 when the pre-states coincide. The uniform [rate /
     population] factor is applied to the total only — it cancels out of
     reaction selection. *)
  let raw_propensity p counts t =
    let { Population.pre = a, b; _ } = p.Population.transitions.(t) in
    if a = b then float_of_int (counts.(a) * (counts.(a) - 1)) /. 2.0
    else float_of_int (counts.(a) * counts.(b))

  module Propensity = struct
    type tracker = {
      p : Population.t;
      productive : int array;
      by_state : int array array;
      props : float array;
      mutable total : float;
      mutable updates : int;
    }

    let create p counts =
      let d = Population.num_states p in
      let productive =
        List.filter
          (fun t -> not (is_identity p t))
          (List.init (Population.num_transitions p) Fun.id)
        |> Array.of_list
      in
      let by = Array.make d [] in
      Array.iter
        (fun t ->
          let { Population.pre = a, b; _ } = p.Population.transitions.(t) in
          by.(a) <- t :: by.(a);
          if b <> a then by.(b) <- t :: by.(b))
        productive;
      let by_state = Array.map (fun l -> Array.of_list (List.rev l)) by in
      let props = Array.make (Population.num_transitions p) 0.0 in
      Array.iter (fun t -> props.(t) <- raw_propensity p counts t) productive;
      let total = Array.fold_left ( +. ) 0.0 props in
      { p; productive; by_state; props; total; updates = 0 }

    let total tr = tr.total
    let get tr t = tr.props.(t)

    (* [counts] must already reflect the firing of [fired]. Only
       transitions whose precondition mentions one of the (at most 4)
       states touched by [fired] can change propensity; recomputation is
       idempotent, so a transition reached via two touched states just
       contributes a zero delta the second time. *)
    let update tr counts ~fired =
      let { Population.pre = a, b; post = a', b' } = tr.p.Population.transitions.(fired) in
      let touch s =
        Array.iter
          (fun t ->
            let v = raw_propensity tr.p counts t in
            tr.total <- tr.total +. (v -. tr.props.(t));
            tr.props.(t) <- v)
          tr.by_state.(s)
      in
      touch a;
      if b <> a then touch b;
      if a' <> a && a' <> b then touch a';
      if b' <> a && b' <> b && b' <> a' then touch b';
      tr.updates <- tr.updates + 1;
      (* periodically resum to keep float drift of the running total bounded *)
      if tr.updates land 2047 = 0 then
        tr.total <- Array.fold_left ( +. ) 0.0 tr.props
  end

  let run ?(max_steps = 5_000_000) ?(quiet_time = 64.0) ?(rate = 1.0) ~rng p c0 =
    let d = Population.num_states p in
    let counts = Array.init d (Mset.get c0) in
    let total = Mset.size c0 in
    if total < 2 then invalid_arg "Gillespie.run: population size >= 2 required";
    let tracker = Propensity.create p counts in
    let scale = rate /. float_of_int total in
    let ones = ref 0 in
    Array.iteri (fun s c -> if p.Population.output.(s) then ones := !ones + c) counts;
    let time = ref 0.0 in
    let last_change = ref 0.0 in
    let status = ref (status_of !ones total) in
    let steps = ref 0 in
    let inert = ref false in
    let quiet () = !status <> None && !time -. !last_change >= quiet_time in
    (* select a reaction proportionally to its propensity; the guard
       [h > 0.0] also protects against the running total drifting above
       the true sum, in which case the last enabled reaction wins *)
    let pick target =
      let chosen = ref (-1) in
      let last_enabled = ref (-1) in
      let acc = ref 0.0 in
      let n = Array.length tracker.Propensity.productive in
      let i = ref 0 in
      while !chosen < 0 && !i < n do
        let t = tracker.Propensity.productive.(!i) in
        let h = Propensity.get tracker t in
        if h > 0.0 then begin
          last_enabled := t;
          acc := !acc +. h;
          if !acc >= target then chosen := t
        end;
        incr i
      done;
      if !chosen >= 0 then !chosen else !last_enabled
    in
    while (not !inert) && (not (quiet ())) && !steps < max_steps do
      let raw_total = Propensity.total tracker in
      if raw_total <= 0.0 then inert := true
      else begin
        let u = Splitmix64.float_unit rng in
        let dt = -.log (1.0 -. u) /. (raw_total *. scale) in
        time := !time +. dt;
        if quiet () then ()
        else begin
          let target = Splitmix64.float_unit rng *. raw_total in
          let t = pick target in
          incr steps;
          let { Population.pre = a, b; post = a', b' } = p.Population.transitions.(t) in
          let adjust s delta =
            counts.(s) <- counts.(s) + delta;
            if p.Population.output.(s) then ones := !ones + delta
          in
          adjust a (-1);
          adjust b (-1);
          adjust a' 1;
          adjust b' 1;
          Propensity.update tracker counts ~fired:t;
          let status' = status_of !ones total in
          if status' <> !status then begin
            status := status';
            last_change := !time
          end
        end
      end
    done;
    {
      Gillespie.time = !time;
      steps = !steps;
      last_change = !last_change;
      output = !status;
      final = Mset.of_array counts;
      converged = !inert || quiet ();
    }

  let run_input ?max_steps ?quiet_time ?rate ~rng p v =
    run ?max_steps ?quiet_time ?rate ~rng p (Population.initial_config p v)
end
