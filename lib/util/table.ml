type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let pad_to n row =
  let len = List.length row in
  if len >= n then row else row @ List.init (n - len) (fun _ -> "")

let render t =
  let ncols = List.length t.headers in
  let rows = List.rev_map (pad_to ncols) t.rows in
  let widths = Array.make ncols 0 in
  let account row =
    List.iteri (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell)) row
  in
  account t.headers;
  List.iter account rows;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  Buffer.add_string buf (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let cells ~id t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      match pad_to (List.length t.headers) row with
      | [] -> ()
      | key :: rest ->
        List.iteri
          (fun i header -> Printf.bprintf buf "%s\t%s\t%s\t%s\n" id key header (List.nth rest i))
          (List.tl t.headers))
    (List.rev t.rows);
  Buffer.contents buf
