(* Tests for Bignat and Magnitude: ring and order laws, division
   invariants, string round-trips, and exactness of magnitude
   comparisons on the paper's constants. *)

let bignat = Alcotest.testable Bignat.pp Bignat.equal

(* -- generators ---------------------------------------------------------- *)

(* Random bignat with up to [limbs] 30-bit limbs, biased towards small
   values so edge cases near zero are exercised. *)
let gen_bignat =
  QCheck.Gen.(
    let small = map Bignat.of_int (int_bound 1000) in
    let large =
      sized (fun n ->
          let limbs = 1 + (n mod 24) in
          list_repeat limbs (int_bound 1_000_000_000) >|= fun chunks ->
          List.fold_left
            (fun acc c ->
              Bignat.add (Bignat.mul acc (Bignat.of_int 1_000_000_007)) (Bignat.of_int c))
            Bignat.zero chunks)
    in
    frequency [ (1, small); (3, large) ])

let arb_bignat = QCheck.make ~print:Bignat.to_string gen_bignat

let prop name ?(count = 200) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* -- unit tests ---------------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (Bignat.to_int_opt (Bignat.of_int n)))
    [ 0; 1; 2; 42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31; max_int ]

let test_of_string () =
  Alcotest.check bignat "decimal parse" (Bignat.of_int 123456789)
    (Bignat.of_string "123456789");
  Alcotest.check bignat "underscores" (Bignat.of_int 1234567)
    (Bignat.of_string "1_234_567");
  Alcotest.check bignat "big decimal round-trip"
    (Bignat.of_string "981723987123987129837129387129381723")
    (Bignat.of_string
       (Bignat.to_string (Bignat.of_string "981723987123987129837129387129381723")));
  Alcotest.check_raises "empty" (Invalid_argument "Bignat.of_string: empty numeral")
    (fun () -> ignore (Bignat.of_string ""))

let test_factorial () =
  Alcotest.check bignat "10!" (Bignat.of_int 3628800) (Bignat.factorial 10);
  Alcotest.(check string)
    "22! known value" "1124000727777607680000"
    (Bignat.to_string (Bignat.factorial 22))

let test_pow () =
  Alcotest.check bignat "3^7" (Bignat.of_int 2187) (Bignat.pow (Bignat.of_int 3) 7);
  Alcotest.check bignat "2^40 via pow2" (Bignat.pow (Bignat.of_int 2) 40) (Bignat.pow2 40);
  Alcotest.check bignat "x^0" Bignat.one (Bignat.pow (Bignat.of_int 99) 0)

let test_divmod_known () =
  let a = Bignat.of_string "123456789012345678901234567890" in
  let b = Bignat.of_string "987654321" in
  let q, r = Bignat.divmod a b in
  Alcotest.check bignat "recompose" a (Bignat.add (Bignat.mul q b) r);
  Alcotest.(check bool) "r < b" true (Bignat.compare r b < 0)

let test_bits () =
  Alcotest.(check int) "bits 0" 0 (Bignat.bits Bignat.zero);
  Alcotest.(check int) "bits 1" 1 (Bignat.bits Bignat.one);
  Alcotest.(check int) "bits 2^30" 31 (Bignat.bits (Bignat.pow2 30));
  Alcotest.(check int) "log2 2^100" 100 (Bignat.log2_floor (Bignat.pow2 100))

let test_shift () =
  let x = Bignat.of_string "12345678901234567890" in
  Alcotest.check bignat "shift round-trip" x
    (Bignat.shift_right (Bignat.shift_left x 47) 47);
  Alcotest.check bignat "shift_left = mul pow2" (Bignat.mul x (Bignat.pow2 13))
    (Bignat.shift_left x 13)

let test_sub_errors () =
  Alcotest.check_raises "negative sub" (Invalid_argument "Bignat.sub: negative result")
    (fun () -> ignore (Bignat.sub Bignat.one Bignat.two));
  Alcotest.check bignat "clamped" Bignat.zero (Bignat.sub_clamped Bignat.one Bignat.two)

(* -- properties ---------------------------------------------------------- *)

let props =
  [
    prop "add commutative" QCheck.(pair arb_bignat arb_bignat) (fun (a, b) ->
        Bignat.equal (Bignat.add a b) (Bignat.add b a));
    prop "add associative" QCheck.(triple arb_bignat arb_bignat arb_bignat)
      (fun (a, b, c) ->
        Bignat.equal
          (Bignat.add a (Bignat.add b c))
          (Bignat.add (Bignat.add a b) c));
    prop "mul commutative" QCheck.(pair arb_bignat arb_bignat) (fun (a, b) ->
        Bignat.equal (Bignat.mul a b) (Bignat.mul b a));
    prop "mul distributes" QCheck.(triple arb_bignat arb_bignat arb_bignat)
      (fun (a, b, c) ->
        Bignat.equal
          (Bignat.mul a (Bignat.add b c))
          (Bignat.add (Bignat.mul a b) (Bignat.mul a c)));
    prop "sub inverts add" QCheck.(pair arb_bignat arb_bignat) (fun (a, b) ->
        Bignat.equal (Bignat.sub (Bignat.add a b) b) a);
    prop "divmod invariant" QCheck.(pair arb_bignat arb_bignat) (fun (a, b) ->
        QCheck.assume (not (Bignat.is_zero b));
        let q, r = Bignat.divmod a b in
        Bignat.equal a (Bignat.add (Bignat.mul q b) r) && Bignat.compare r b < 0);
    prop "divmod_int agrees" QCheck.(pair arb_bignat (int_range 1 1_000_000))
      (fun (a, k) ->
        let q, r = Bignat.divmod_int a k in
        let q', r' = Bignat.divmod a (Bignat.of_int k) in
        Bignat.equal q q' && Bignat.equal (Bignat.of_int r) r');
    prop "string round-trip" arb_bignat (fun a ->
        Bignat.equal a (Bignat.of_string (Bignat.to_string a)));
    prop "compare total order" QCheck.(triple arb_bignat arb_bignat arb_bignat)
      (fun (a, b, c) ->
        let ( <= ) x y = Bignat.compare x y <= 0 in
        (not (a <= b && b <= c)) || a <= c);
    prop "bits bounds value" arb_bignat (fun a ->
        QCheck.assume (not (Bignat.is_zero a));
        let b = Bignat.bits a in
        Bignat.compare a (Bignat.pow2 b) < 0
        && Bignat.compare (Bignat.pow2 (b - 1)) a <= 0);
    prop "karatsuba agrees with small mul" QCheck.(pair arb_bignat arb_bignat)
      (fun (a, b) ->
        (* force large operands through repeated squaring *)
        let big x = Bignat.mul (Bignat.pow (Bignat.add x Bignat.two) 40) (Bignat.succ x) in
        let a' = big a and b' = big b in
        let p = Bignat.mul a' b' in
        (* check p mod small primes against modular arithmetic *)
        List.for_all
          (fun m ->
            let ( %% ) x k = snd (Bignat.divmod_int x k) in
            p %% m = (a' %% m * (b' %% m)) mod m)
          [ 97; 65537; 999999937 ]);
    prop "gcd divides" QCheck.(pair arb_bignat arb_bignat) (fun (a, b) ->
        QCheck.assume (not (Bignat.is_zero a) && not (Bignat.is_zero b));
        let g = Bignat.gcd a b in
        Bignat.is_zero (Bignat.rem a g) && Bignat.is_zero (Bignat.rem b g));
  ]

(* -- Magnitude ----------------------------------------------------------- *)

let test_magnitude_compare () =
  let m_small = Magnitude.of_int 1000 in
  let m_pow = Magnitude.exp2_bignat (Bignat.of_int 100) in
  let beta3 = Magnitude.exp2_bignat (Bignat.succ (Bignat.mul_int (Bignat.factorial 7) 2)) in
  let theta3 = Magnitude.exp2_bignat (Bignat.factorial 8) in
  Alcotest.(check bool) "1000 < 2^100" true (Magnitude.compare m_small m_pow < 0);
  Alcotest.(check bool) "beta(3) < theta(3)" true (Magnitude.compare beta3 theta3 < 0);
  Alcotest.(check bool) "exp2 monotone" true
    (Magnitude.compare (Magnitude.exp2 m_small) (Magnitude.exp2 m_pow) < 0);
  (* small exponents collapse to concrete values *)
  Alcotest.(check (option string)) "collapse"
    (Some (Bignat.to_string (Bignat.pow2 64)))
    (Option.map Bignat.to_string (Magnitude.to_bignat_opt (Magnitude.exp2 (Magnitude.of_int 64))))

let test_magnitude_exact_boundary () =
  (* 2^k vs exp2 k must compare equal; 2^k + 1 must be greater *)
  let k = Bignat.of_int 30_000 in
  let tower = Magnitude.exp2_bignat k in
  Alcotest.(check int) "equal" 0
    (Magnitude.compare tower (Magnitude.exp2_bignat k));
  Alcotest.(check bool) "2^k < 2^(k+1)" true
    (Magnitude.compare tower (Magnitude.exp2_bignat (Bignat.succ k)) < 0)

let test_magnitude_mul_upper () =
  let a = Magnitude.of_int 12 and b = Magnitude.of_int 100 in
  Alcotest.(check (option string)) "exact on concrete"
    (Some "1200")
    (Option.map Bignat.to_string (Magnitude.to_bignat_opt (Magnitude.mul_upper a b)));
  let t = Magnitude.exp2_bignat (Bignat.of_int 100_000) in
  Alcotest.(check bool) "upper bound dominates" true
    (Magnitude.compare t (Magnitude.mul_upper t (Magnitude.of_int 7)) <= 0)

let test_magnitude_tower () =
  let t2 = Magnitude.exp2 (Magnitude.exp2_bignat (Bignat.of_int 1_000_000)) in
  Alcotest.(check int) "height 2" 2 (Magnitude.tower_height t2);
  Alcotest.(check bool) "tower beats concrete" true
    (Magnitude.compare (Magnitude.of_bignat (Bignat.factorial 1000)) t2 < 0)

let magnitude_props =
  [
    prop "magnitude order embeds bignat" QCheck.(pair arb_bignat arb_bignat)
      (fun (a, b) ->
        Stdlib.compare (Bignat.compare a b) 0
        = Stdlib.compare (Magnitude.compare (Magnitude.of_bignat a) (Magnitude.of_bignat b)) 0);
    prop "exp2 strictly monotone" QCheck.(pair arb_bignat arb_bignat) (fun (a, b) ->
        QCheck.assume (Bignat.compare a b < 0);
        Magnitude.compare (Magnitude.exp2_bignat a) (Magnitude.exp2_bignat b) < 0);
    prop "concrete below its exp2" arb_bignat (fun a ->
        QCheck.assume (not (Bignat.is_zero a));
        Magnitude.compare (Magnitude.of_bignat a) (Magnitude.exp2_bignat a) < 0);
  ]

let () =
  Alcotest.run "bigarith"
    [
      ( "bignat-unit",
        [
          Alcotest.test_case "of_int round-trip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "sub errors" `Quick test_sub_errors;
        ] );
      ("bignat-props", props);
      ( "magnitude",
        [
          Alcotest.test_case "compare" `Quick test_magnitude_compare;
          Alcotest.test_case "boundary" `Quick test_magnitude_exact_boundary;
          Alcotest.test_case "mul_upper" `Quick test_magnitude_mul_upper;
          Alcotest.test_case "towers" `Quick test_magnitude_tower;
        ]
        @ magnitude_props );
    ]
