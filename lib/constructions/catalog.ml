type entry = {
  name : string;
  description : string;
  spec : Predicate.t;
  build : unit -> Population.t;
}

let flock_naive k =
  {
    name = Printf.sprintf "flock-naive-%d" k;
    description = Printf.sprintf "Example 2.1's P_%d: x >= %d with %d states" k (1 lsl k) ((1 lsl k) + 1);
    spec = Predicate.threshold_single (1 lsl k);
    build = (fun () -> Flock.naive k);
  }

let flock_succinct k =
  {
    name = Printf.sprintf "flock-succinct-%d" k;
    description = Printf.sprintf "Example 2.1's P'_%d: x >= %d with %d states" k (1 lsl k) (k + 2);
    spec = Predicate.threshold_single (1 lsl k);
    build = (fun () -> Flock.succinct k);
  }

let threshold_unary eta =
  {
    name = Printf.sprintf "threshold-unary-%d" eta;
    description = Printf.sprintf "unary x >= %d (baseline, %d states)" eta (eta + 1);
    spec = Predicate.threshold_single eta;
    build = (fun () -> Threshold.unary eta);
  }

let threshold_binary eta =
  {
    name = Printf.sprintf "threshold-binary-%d" eta;
    description =
      Printf.sprintf "binary x >= %d (succinct, %d states)" eta
        (Threshold.binary_num_states eta);
    spec = Predicate.threshold_single eta;
    build = (fun () -> Threshold.binary eta);
  }

let majority =
  {
    name = "majority";
    description = "4-state majority: x_A > x_B";
    spec = Predicate.majority ();
    build = (fun () -> Majority.protocol ());
  }

let modulo m r =
  {
    name = Printf.sprintf "mod-%d-%d" m r;
    description = Printf.sprintf "x ≡ %d (mod %d) with %d states" r m (m + 2);
    spec = Predicate.Modulo ([| 1 |], r, m);
    build = (fun () -> Modulo_protocol.protocol ~m ~r);
  }

let leader_counter k =
  {
    name = Printf.sprintf "leader-counter-%d" k;
    description =
      Printf.sprintf "x >= %d via a %d-bit leader counter (%d states, %d leaders)"
        (1 lsl k) k ((3 * k) + 2) k;
    spec = Predicate.threshold_single (1 lsl k);
    build = (fun () -> Leader_counter.protocol k);
  }

let default_entries () =
  [
    flock_naive 1; flock_naive 2; flock_naive 3;
    flock_succinct 1; flock_succinct 2; flock_succinct 3; flock_succinct 4;
    threshold_unary 3; threshold_unary 5;
    threshold_binary 3; threshold_binary 5; threshold_binary 6;
    threshold_binary 9; threshold_binary 11; threshold_binary 13;
    majority;
    modulo 2 0; modulo 3 1;
    leader_counter 1; leader_counter 2; leader_counter 3;
  ]

let int_of_suffix prefix name =
  let lp = String.length prefix and ln = String.length name in
  if ln > lp && String.sub name 0 lp = prefix then
    int_of_string_opt (String.sub name lp (ln - lp))
  else None

let build name =
  let ( >>= ) o f = Option.bind o f in
  let try_param prefix make = int_of_suffix prefix name >>= fun k -> Some (make k) in
  let parse_mod () =
    match String.split_on_char '-' name with
    | [ "mod"; m; r ] ->
      (match (int_of_string_opt m, int_of_string_opt r) with
       | Some m, Some r when m >= 1 && r >= 0 && r < m -> Some (modulo m r)
       | _ -> None)
    | _ -> None
  in
  if name = "majority" then Some majority
  else
    match try_param "flock-naive-" flock_naive with
    | Some _ as r -> r
    | None ->
      (match try_param "flock-succinct-" flock_succinct with
       | Some _ as r -> r
       | None ->
         (match try_param "threshold-unary-" threshold_unary with
          | Some _ as r -> r
          | None ->
            (match try_param "threshold-binary-" threshold_binary with
             | Some _ as r -> r
             | None ->
               (match try_param "leader-counter-" leader_counter with
                | Some _ as r -> r
                | None -> parse_mod ()))))

let names_help =
  "flock-naive-K | flock-succinct-K | threshold-unary-N | threshold-binary-N \
   | majority | mod-M-R | leader-counter-K"

let load ~name ~file =
  match (name, file) with
  | Some n, None ->
    (match build n with
     | Some e -> Ok (e.build ())
     | None ->
       Error (Printf.sprintf "unknown protocol %S (expected: %s)" n names_help))
  | None, Some f -> Protocol_syntax.parse_file f
  | _ -> Error "exactly one of --protocol and --file is required"
