(* The grammar every reported metric obeys, so a result line is accepted
   by whatever reads BENCHMARK.json:

   - a name starts with a letter or a digit and is at most 64 letters,
     digits, '_', '.' and '-';
   - a unit is 1..16 letters, digits, '_', '/', '%', '.' and '-'. *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
