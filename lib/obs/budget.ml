type partial = ..
type partial += No_partial

type info = {
  source : string;
  resource : string;
  limit : float;
  consumed : (string * float) list;
  partial : partial;
}

exception Exceeded of info

let m_exceeded = Metrics.counter "budget.exceeded"

let exceeded ?(partial = No_partial) ~source ~resource ~limit ~consumed () =
  if Metrics.enabled () then Metrics.incr m_exceeded;
  if Events.enabled () then
    Events.emit ~severity:Warn "budget.exceeded"
      ~data:
        ([
           ("source", Json.String source);
           ("resource", Json.String resource);
           ("limit", Json.Float limit);
         ]
         @ List.map (fun (k, v) -> ("consumed_" ^ k, Json.Float v)) consumed);
  Exceeded { source; resource; limit; consumed; partial }

(* Budgets are almost always integral counts; print them without the
   float noise, falling back to %g for genuine fractions. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let describe i =
  Printf.sprintf "%s: %s budget exceeded (limit %s%s)" i.source i.resource
    (number i.limit)
    (match i.consumed with
     | [] -> ""
     | l ->
       "; consumed "
       ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ number v) l))


let () =
  Printexc.register_printer (function
    | Exceeded i -> Some ("Obs.Budget.Exceeded: " ^ describe i)
    | _ -> None)
