(* Paper-style text tables: a header row, aligned columns, and helpers for
   the mean+-std and "NM" (not meaningful) conventions used in Tables 1-4. *)

type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~headers = { title; headers; rows = [] }
let add_row t cells = t.rows <- cells :: t.rows

(* "mean+-std" with no decimals, like the paper's microsecond tables. *)
let mean_std mean std =
  if Float.is_nan mean then "NM"
  else Printf.sprintf "%.0f\xc2\xb1%.0f" mean std

let us v = if Float.is_nan v then "NM" else Printf.sprintf "%.0f" v

(* Not meaningful: insufficient data or an unusual distribution. *)
let nm = "NM"

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let pad r = r @ List.init (ncols - List.length r) (fun _ -> "") in
  let all = List.map pad all in
  (* display width: count UTF-8 sequences, not bytes (the +- sign) *)
  let display_width s =
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
    !n
  in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i c ->
         if display_width c > widths.(i) then widths.(i) <- display_width c))
    all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let line_for cells ~first_left =
    List.iteri
      (fun i c ->
        let w = widths.(i) in
        let padding = w - display_width c in
        let cell =
          if i = 0 && first_left then c ^ String.make padding ' '
          else String.make padding ' ' ^ c
        in
        Buffer.add_string buf cell;
        if i < ncols - 1 then Buffer.add_string buf "  ")
      cells;
    Buffer.add_char buf '\n'
  in
  line_for (List.nth all 0) ~first_left:true;
  let total_width =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter (fun r -> line_for r ~first_left:true) (List.tl all);
  Buffer.contents buf
