//! The one fixed-width table writer every row prints through.
//!
//! A table is a `# title` line followed by header, heading and data lines.
//! A [`Column`] is a header, a width and an alignment, plus the [`Cell`] it
//! shows for a row; a cell is text, or a number with a precision.  The
//! cells of a line are joined by one space, each padded to its column's
//! width; a value wider than its column is written whole — neither padded
//! nor truncated, as `format!` does.

/// Which side of a column its values are pushed to.
#[derive(Clone, Copy)]
enum Align {
    Left,
    Right,
}

/// One column of a table of `T`s.
pub struct Column<T> {
    header: &'static str,
    width: usize,
    align: Align,
    cell: fn(&T) -> Cell,
}

/// A left-aligned column showing `cell` of each row.
pub const fn left<T>(header: &'static str, width: usize, cell: fn(&T) -> Cell) -> Column<T> {
    Column {
        header,
        width,
        align: Align::Left,
        cell,
    }
}

/// A right-aligned column showing `cell` of each row.
pub const fn right<T>(header: &'static str, width: usize, cell: fn(&T) -> Cell) -> Column<T> {
    Column {
        header,
        width,
        align: Align::Right,
        cell,
    }
}

/// One value of a line.
pub enum Cell {
    /// Written as is.
    Text(String),
    /// Written with this many digits after the point.
    Num(f64, usize),
}

/// A number written with `precision` digits after the point.
pub fn num(value: f64, precision: usize) -> Cell {
    Cell::Num(value, precision)
}

impl From<&str> for Cell {
    fn from(text: &str) -> Self {
        Cell::Text(text.to_string())
    }
}

impl From<u64> for Cell {
    fn from(count: u64) -> Self {
        Cell::Num(count as f64, 0)
    }
}

/// A table of `T`s being written: its columns and the text so far.
pub struct Table<T: 'static> {
    columns: &'static [Column<T>],
    text: String,
}

impl<T> Table<T> {
    /// Starts a table with its `# title` line.
    pub fn new(title: &str, columns: &'static [Column<T>]) -> Self {
        Self {
            columns,
            text: format!("# {title}\n"),
        }
    }

    /// Writes a line of free text, such as a series heading.
    pub fn line(&mut self, text: &str) {
        self.text.push_str(text);
        self.text.push('\n');
    }

    /// Writes every column's header.
    pub fn header(&mut self) {
        self.write(self.columns.iter().map(|c| Cell::from(c.header)));
    }

    /// Writes one line per row.
    pub fn rows<'a>(&mut self, rows: impl IntoIterator<Item = &'a T>) {
        for row in rows {
            self.write(self.columns.iter().map(|c| (c.cell)(row)));
        }
    }

    fn write(&mut self, cells: impl Iterator<Item = Cell>) {
        for (i, (column, cell)) in self.columns.iter().zip(cells).enumerate() {
            let value = match cell {
                Cell::Text(text) => text,
                Cell::Num(value, precision) => format!("{value:.precision$}"),
            };
            let width = column.width;
            if i > 0 {
                self.text.push(' ');
            }
            self.text.push_str(&match column.align {
                Align::Left => format!("{value:<width$}"),
                Align::Right => format!("{value:>width$}"),
            });
        }
        self.text.push('\n');
    }

    /// The finished table.
    pub fn finish(self) -> String {
        self.text
    }
}

/// The common table: its title, a header line, then one line per row.
pub fn table<'a, T: 'static>(
    title: &str,
    columns: &'static [Column<T>],
    rows: impl IntoIterator<Item = &'a T>,
) -> String {
    let mut table = Table::new(title, columns);
    table.header();
    table.rows(rows);
    table.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Row = (&'static str, f64, u64);

    const COLUMNS: &[Column<Row>] = &[
        left("name", 6, |r| r.0.into()),
        right("tps", 8, |r| num(r.1, 1)),
        right("count", 6, |r| r.2.into()),
    ];

    #[test]
    fn cells_are_aligned_padded_and_rounded_like_format() {
        let mut table = Table::new("Title", COLUMNS);
        table.line("heading");
        table.header();
        table.rows(&[("ab", 1234.56, 7), ("c", -1.0, 12)]);
        let expected = format!(
            "# Title\nheading\n{:<6} {:>8} {:>6}\n{:<6} {:>8.1} {:>6}\n{:<6} {:>8.1} {:>6}\n",
            "name", "tps", "count", "ab", 1234.56, 7, "c", -1.0, 12
        );
        assert_eq!(table.finish(), expected);
    }

    #[test]
    fn a_value_wider_than_its_column_is_neither_padded_nor_truncated() {
        let wide = table("Wide", COLUMNS, &[("a-long-name", 123_456_789.0, 5)]);
        let expected = "# Wide\nname        tps  count\na-long-name 123456789.0      5\n";
        assert_eq!(wide, expected);
    }
}
