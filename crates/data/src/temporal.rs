//! Temporal values and parsing.
//!
//! DeepEye detects temporal columns automatically from the attribute values
//! (§II-A of the paper) and bins them by minute, hour, day, week, month,
//! quarter, or year. This module provides a compact timestamp type with the
//! civil-calendar conversions those bins need, plus a permissive parser for
//! the date/time formats that appear in the paper's datasets (for example
//! `01-Jan 00:05` from the flight-delay table).

use std::fmt;

/// Seconds-precision timestamp, stored as seconds relative to the Unix epoch.
///
/// A full datetime library is overkill for binning: all DeepEye needs is to
/// parse common formats and truncate to calendar boundaries. Ordering and
/// arithmetic are those of the underlying second count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(i64);

/// A broken-down civil (proleptic Gregorian) datetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    pub year: i32,
    /// 1-12
    pub month: u8,
    /// 1-31
    pub day: u8,
    /// 0-23
    pub hour: u8,
    /// 0-59
    pub minute: u8,
    /// 0-59
    pub second: u8,
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u8, d as u8)
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i32, m: u8) -> u8 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Civil {
    /// Validate field ranges, returning `None` on an impossible date.
    pub fn new(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return None;
        }
        if hour > 23 || minute > 59 || second > 59 {
            return None;
        }
        Some(Self {
            year,
            month,
            day,
            hour,
            minute,
            second,
        })
    }

    /// Midnight on the given date.
    pub fn date(year: i32, month: u8, day: u8) -> Option<Self> {
        Self::new(year, month, day, 0, 0, 0)
    }
}

/// Calendar granularities a temporal column may be binned by (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimeUnit {
    Minute,
    Hour,
    Day,
    Week,
    Month,
    Quarter,
    Year,
}

impl TimeUnit {
    /// All seven units, coarsest last — matches the paper's bin list.
    pub const ALL: [TimeUnit; 7] = [
        TimeUnit::Minute,
        TimeUnit::Hour,
        TimeUnit::Day,
        TimeUnit::Week,
        TimeUnit::Month,
        TimeUnit::Quarter,
        TimeUnit::Year,
    ];

    /// Keyword used by the visualization language (`BIN X BY HOUR`).
    pub fn keyword(self) -> &'static str {
        match self {
            TimeUnit::Minute => "MINUTE",
            TimeUnit::Hour => "HOUR",
            TimeUnit::Day => "DAY",
            TimeUnit::Week => "WEEK",
            TimeUnit::Month => "MONTH",
            TimeUnit::Quarter => "QUARTER",
            TimeUnit::Year => "YEAR",
        }
    }

    /// Parse a (case-insensitive) keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|u| u.keyword().eq_ignore_ascii_case(s.trim()))
    }
}

impl fmt::Display for TimeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl Timestamp {
    pub const fn from_unix_seconds(secs: i64) -> Self {
        Timestamp(secs)
    }

    pub const fn unix_seconds(self) -> i64 {
        self.0
    }

    /// Build from a civil datetime (interpreted as UTC).
    pub fn from_civil(c: Civil) -> Self {
        let days = days_from_civil(c.year, c.month, c.day);
        Timestamp(
            days * 86_400
                + i64::from(c.hour) * 3_600
                + i64::from(c.minute) * 60
                + i64::from(c.second),
        )
    }

    /// Break into civil fields.
    pub fn civil(self) -> Civil {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        Civil {
            year,
            month,
            day,
            hour: (secs / 3_600) as u8,
            minute: (secs % 3_600 / 60) as u8,
            second: (secs % 60) as u8,
        }
    }

    /// Truncate down to the start of the enclosing `unit` period.
    ///
    /// Weeks start on Monday (ISO-8601); quarters on Jan/Apr/Jul/Oct 1.
    pub fn truncate(self, unit: TimeUnit) -> Timestamp {
        match unit {
            TimeUnit::Minute => Timestamp(self.0.div_euclid(60) * 60),
            TimeUnit::Hour => Timestamp(self.0.div_euclid(3_600) * 3_600),
            TimeUnit::Day => Timestamp(self.0.div_euclid(86_400) * 86_400),
            TimeUnit::Week => {
                let days = self.0.div_euclid(86_400);
                // 1970-01-01 was a Thursday; shift so weeks start on Monday.
                let dow = (days + 3).rem_euclid(7); // 0 = Monday
                Timestamp((days - dow) * 86_400)
            }
            TimeUnit::Month => {
                let c = self.civil();
                Timestamp::from_civil(Civil {
                    day: 1,
                    hour: 0,
                    minute: 0,
                    second: 0,
                    ..c
                })
            }
            TimeUnit::Quarter => {
                let c = self.civil();
                let month = 1 + (c.month - 1) / 3 * 3;
                Timestamp::from_civil(Civil {
                    month,
                    day: 1,
                    hour: 0,
                    minute: 0,
                    second: 0,
                    ..c
                })
            }
            TimeUnit::Year => {
                let c = self.civil();
                Timestamp::from_civil(Civil {
                    month: 1,
                    day: 1,
                    hour: 0,
                    minute: 0,
                    second: 0,
                    ..c
                })
            }
        }
    }

    /// The periodic component of this timestamp for the given unit —
    /// DeepEye's temporal bins put "the rows with the same hour … in the
    /// same bucket" (§II-A / Example 1), and the paper's Table II confirms
    /// the periodic reading (`BIN scheduled BY HOUR` over a year of data
    /// yields `|X'| = 24`):
    ///
    /// - `Minute` → minute of hour (0–59)
    /// - `Hour` → hour of day (0–23)
    /// - `Day` → day of year (1–366)
    /// - `Week` → week of year (1–53)
    /// - `Month` → month of year (1–12)
    /// - `Quarter` → quarter of year (1–4)
    /// - `Year` → the calendar year itself (the one non-periodic unit)
    ///
    /// Minute and hour come from the second of the day; the other units
    /// convert the day to a civil date once.
    pub fn period_index(self, unit: TimeUnit) -> i64 {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        match unit {
            TimeUnit::Minute => secs % 3_600 / 60,
            TimeUnit::Hour => secs / 3_600,
            TimeUnit::Day | TimeUnit::Week => {
                let (year, _, _) = civil_from_days(days);
                let day_of_year = days - days_from_civil(year, 1, 1) + 1;
                match unit {
                    TimeUnit::Day => day_of_year,
                    _ => (day_of_year - 1) / 7 + 1,
                }
            }
            TimeUnit::Month | TimeUnit::Quarter | TimeUnit::Year => {
                let (year, month, _) = civil_from_days(days);
                match unit {
                    TimeUnit::Month => i64::from(month),
                    TimeUnit::Quarter => i64::from((month - 1) / 3 + 1),
                    _ => i64::from(year),
                }
            }
        }
    }

    /// Human-readable label for a periodic bin index, e.g. `14:00` for
    /// hour 14 or `Jan` for month 1.
    pub fn period_label(unit: TimeUnit, index: i64) -> String {
        match unit {
            TimeUnit::Minute => format!(":{index:02}"),
            TimeUnit::Hour => format!("{index:02}:00"),
            TimeUnit::Day => format!("day {index}"),
            TimeUnit::Week => format!("week {index}"),
            TimeUnit::Month => MONTH_LABELS
                .get((index - 1).clamp(0, 11) as usize)
                .map(|s| (*s).to_owned())
                .unwrap_or_else(|| format!("month {index}")),
            TimeUnit::Quarter => format!("Q{index}"),
            TimeUnit::Year => format!("{index}"),
        }
    }

    /// Human-readable label for a bin boundary at the given granularity,
    /// e.g. `2015-03` for a month bin or `14:00` for an hour bin (used by
    /// calendar *truncation*, e.g. axis ticks — periodic bins use
    /// [`Timestamp::period_label`]).
    pub fn bin_label(self, unit: TimeUnit) -> String {
        let c = self.civil();
        match unit {
            TimeUnit::Minute => format!(
                "{:04}-{:02}-{:02} {:02}:{:02}",
                c.year, c.month, c.day, c.hour, c.minute
            ),
            TimeUnit::Hour => {
                format!("{:04}-{:02}-{:02} {:02}:00", c.year, c.month, c.day, c.hour)
            }
            TimeUnit::Day | TimeUnit::Week => {
                format!("{:04}-{:02}-{:02}", c.year, c.month, c.day)
            }
            TimeUnit::Month => format!("{:04}-{:02}", c.year, c.month),
            TimeUnit::Quarter => format!("{:04}-Q{}", c.year, (c.month - 1) / 3 + 1),
            TimeUnit::Year => format!("{:04}", c.year),
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.civil();
        if (c.hour, c.minute, c.second) == (0, 0, 0) {
            write!(f, "{:04}-{:02}-{:02}", c.year, c.month, c.day)
        } else {
            write!(
                f,
                "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
                c.year, c.month, c.day, c.hour, c.minute, c.second
            )
        }
    }
}

const MONTH_LABELS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

const MONTH_NAMES: [&str; 12] = [
    "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
];

fn month_from_name(s: &str) -> Option<u8> {
    let key = s.get(..3)?;
    MONTH_NAMES
        .iter()
        .position(|m| m.eq_ignore_ascii_case(key))
        .map(|i| i as u8 + 1)
}

/// Year assumed when a format omits it (e.g. `01-Jan 00:05`). The flight
/// table in the paper covers calendar year 2015.
pub const DEFAULT_YEAR: i32 = 2015;

fn parse_u32(s: &str) -> Option<u32> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn parse_hms(s: &str) -> Option<(u8, u8, u8)> {
    let mut it = s.split(':');
    let h = parse_u32(it.next()?)?;
    let m = parse_u32(it.next()?)?;
    let sec = match it.next() {
        Some(x) => parse_u32(x)?,
        None => 0,
    };
    if it.next().is_some() || h > 23 || m > 59 || sec > 59 {
        return None;
    }
    Some((h as u8, m as u8, sec as u8))
}

/// `Civil::date` over parsed fields. A field too large for its `Civil`
/// type makes an impossible date, not one that wraps around.
fn checked_date(year: u32, month: u32, day: u32) -> Option<Civil> {
    Civil::date(
        year.try_into().ok()?,
        month.try_into().ok()?,
        day.try_into().ok()?,
    )
}

/// Parse a date-only token. Accepted shapes:
/// `YYYY-MM-DD`, `YYYY/MM/DD`, `MM/DD/YYYY`, `YYYY-MM`, `DD-Mon[-YYYY]`,
/// `Mon-YYYY`, `Mon DD[,] YYYY` handled at the caller via whitespace split.
fn parse_date_token(s: &str) -> Option<Civil> {
    let seps: &[char] = &['-', '/'];
    let mut parts = s.split(seps);
    let (a, b) = (parts.next()?, parts.next()?);
    match (parts.next(), parts.next()) {
        (Some(c), None) => {
            if let (Some(y), Some(m), Some(d)) = (parse_u32(a), parse_u32(b), parse_u32(c)) {
                if a.len() == 4 {
                    return checked_date(y, m, d);
                }
                // MM/DD/YYYY
                if c.len() == 4 {
                    return checked_date(d, y, m);
                }
                return None;
            }
            // DD-Mon-YYYY
            if let (Some(d), Some(m), Some(y)) = (parse_u32(a), month_from_name(b), parse_u32(c)) {
                return checked_date(y, m.into(), d);
            }
            None
        }
        (None, _) => {
            if let (Some(y), Some(m)) = (parse_u32(a), parse_u32(b)) {
                if a.len() == 4 {
                    return checked_date(y, m, 1);
                }
                return None;
            }
            // DD-Mon (default year) or Mon-YYYY
            if let (Some(d), Some(m)) = (parse_u32(a), month_from_name(b)) {
                return Civil::date(DEFAULT_YEAR, m, d.try_into().ok()?);
            }
            if let (Some(m), Some(y)) = (month_from_name(a), parse_u32(b)) {
                if b.len() == 4 {
                    return checked_date(y, m.into(), 1);
                }
            }
            None
        }
        _ => None,
    }
}

/// Parse a string as a timestamp, trying the formats common in the paper's
/// datasets. Returns `None` when the string is not temporal.
///
/// Bare 4-digit integers in `[1500, 2100]` are treated as years only by
/// [`parse_timestamp_loose`]; this strict variant rejects them so that
/// numeric columns containing values like `2000` are not misdetected.
pub fn parse_timestamp(s: &str) -> Option<Timestamp> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // "<date>T<time>" or "<date> <time>".
    let (date_part, time_part) = match s.split_once('T').or_else(|| s.split_once(' ')) {
        Some((d, t)) => (d, Some(t.trim())),
        None => (s, None),
    };
    if let Some(mut c) = parse_date_token(date_part) {
        if let Some(t) = time_part {
            let (h, m, sec) = parse_hms(t)?;
            c.hour = h;
            c.minute = m;
            c.second = sec;
        }
        return Some(Timestamp::from_civil(c));
    }
    // Time-only values like "14:05" (mapped onto the epoch date so that
    // hour/minute binning still works).
    if time_part.is_none() {
        if let Some((h, m, sec)) = parse_hms(s) {
            return Some(Timestamp::from_civil(Civil {
                year: 1970,
                month: 1,
                day: 1,
                hour: h,
                minute: m,
                second: sec,
            }));
        }
    }
    // "Mon DD, YYYY" / "DD Mon YYYY" on the whole string (the date/time
    // split above would have torn these apart at the first space).
    let mut words = s
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|w| !w.is_empty());
    if let (Some(w0), Some(w1), Some(w2), None) =
        (words.next(), words.next(), words.next(), words.next())
    {
        if let (Some(m), Some(d), Some(y)) = (month_from_name(w0), parse_u32(w1), parse_u32(w2)) {
            return checked_date(y, m.into(), d).map(Timestamp::from_civil);
        }
        if let (Some(d), Some(m), Some(y)) = (parse_u32(w0), month_from_name(w1), parse_u32(w2)) {
            return checked_date(y, m.into(), d).map(Timestamp::from_civil);
        }
    }
    None
}

/// Like [`parse_timestamp`] but also accepts bare years (`1999`).
pub fn parse_timestamp_loose(s: &str) -> Option<Timestamp> {
    parse_timestamp(s).or_else(|| parse_bare_year(s))
}

/// A bare four-digit year in `[1500, 2100]`, as January 1 of that year:
/// what [`parse_timestamp_loose`] adds to [`parse_timestamp`].
pub(crate) fn parse_bare_year(s: &str) -> Option<Timestamp> {
    let s = s.trim();
    if s.len() != 4 {
        return None;
    }
    let year = parse_u32(s).filter(|y| (1500..=2100).contains(y))?;
    checked_date(year, 1, 1).map(Timestamp::from_civil)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(y: i32, mo: u8, d: u8, h: u8, mi: u8, s: u8) -> Timestamp {
        Timestamp::from_civil(Civil::new(y, mo, d, h, mi, s).unwrap())
    }

    #[test]
    fn civil_round_trip_epoch() {
        let t = Timestamp::from_unix_seconds(0);
        let c = t.civil();
        assert_eq!((c.year, c.month, c.day), (1970, 1, 1));
        assert_eq!(Timestamp::from_civil(c), t);
    }

    #[test]
    fn civil_round_trip_pre_epoch() {
        let t = ts(1969, 12, 31, 23, 59, 59);
        assert_eq!(t.unix_seconds(), -1);
        let c = t.civil();
        assert_eq!((c.year, c.month, c.day, c.second), (1969, 12, 31, 59));
    }

    #[test]
    fn leap_years_handled() {
        assert!(Civil::date(2016, 2, 29).is_some());
        assert!(Civil::date(2015, 2, 29).is_none());
        assert!(Civil::date(2000, 2, 29).is_some());
        assert!(Civil::date(1900, 2, 29).is_none());
    }

    #[test]
    fn invalid_fields_rejected() {
        assert!(Civil::new(2015, 13, 1, 0, 0, 0).is_none());
        assert!(Civil::new(2015, 0, 1, 0, 0, 0).is_none());
        assert!(Civil::new(2015, 4, 31, 0, 0, 0).is_none());
        assert!(Civil::new(2015, 1, 1, 24, 0, 0).is_none());
    }

    #[test]
    fn parses_paper_flight_format() {
        // "01-Jan 00:05" from Table I, year defaults to 2015.
        let t = parse_timestamp("01-Jan 00:05").unwrap();
        let c = t.civil();
        assert_eq!(
            (c.year, c.month, c.day, c.hour, c.minute),
            (2015, 1, 1, 0, 5)
        );
    }

    #[test]
    fn parses_iso_formats() {
        assert_eq!(
            parse_timestamp("2015-07-04").unwrap(),
            ts(2015, 7, 4, 0, 0, 0)
        );
        assert_eq!(
            parse_timestamp("2015-07-04 13:30:05").unwrap(),
            ts(2015, 7, 4, 13, 30, 5)
        );
        assert_eq!(
            parse_timestamp("2015-07-04T13:30:05").unwrap(),
            ts(2015, 7, 4, 13, 30, 5)
        );
        assert_eq!(parse_timestamp("2015-07").unwrap(), ts(2015, 7, 1, 0, 0, 0));
    }

    #[test]
    fn parses_us_and_name_formats() {
        assert_eq!(
            parse_timestamp("7/4/2015").unwrap(),
            ts(2015, 7, 4, 0, 0, 0)
        );
        assert_eq!(
            parse_timestamp("04-Jul-2015").unwrap(),
            ts(2015, 7, 4, 0, 0, 0)
        );
        assert_eq!(
            parse_timestamp("Jul-2015").unwrap(),
            ts(2015, 7, 1, 0, 0, 0)
        );
        assert_eq!(
            parse_timestamp("Jul 4, 2015").unwrap(),
            ts(2015, 7, 4, 0, 0, 0)
        );
        assert_eq!(
            parse_timestamp("4 Jul 2015").unwrap(),
            ts(2015, 7, 4, 0, 0, 0)
        );
    }

    #[test]
    fn parses_time_only() {
        let t = parse_timestamp("14:05").unwrap();
        let c = t.civil();
        assert_eq!((c.year, c.hour, c.minute), (1970, 14, 5));
    }

    #[test]
    fn strict_rejects_bare_years_loose_accepts() {
        assert!(parse_timestamp("1999").is_none());
        assert_eq!(
            parse_timestamp_loose("1999").unwrap(),
            ts(1999, 1, 1, 0, 0, 0)
        );
        assert!(parse_timestamp_loose("123").is_none());
        assert!(parse_timestamp_loose("2500").is_none());
    }

    #[test]
    fn rejects_non_temporal() {
        for s in [
            "",
            "hello",
            "12.5",
            "-42",
            "2015-13-01",
            "25:00",
            "Foo-2015",
        ] {
            assert!(parse_timestamp(s).is_none(), "should reject {s:?}");
        }
    }

    #[test]
    fn impossible_dates_do_not_wrap_around() {
        // Each has a field that parses as a u32 too large for its Civil
        // field; narrowing it with `as` would wrap it into a real date
        // (258 → February, 257 → the 1st, 3e9 → a negative year).
        for s in [
            "2015-258-01",
            "258/01/2015",
            "2015-02-257",
            "257-Jan-2015",
            "Jan 257, 2015",
            "01-Jan-3000000000",
        ] {
            assert_eq!(parse_timestamp(s), None, "{s:?}");
        }
    }

    #[test]
    fn truncation_boundaries() {
        let t = ts(2015, 8, 19, 14, 37, 42);
        assert_eq!(t.truncate(TimeUnit::Minute), ts(2015, 8, 19, 14, 37, 0));
        assert_eq!(t.truncate(TimeUnit::Hour), ts(2015, 8, 19, 14, 0, 0));
        assert_eq!(t.truncate(TimeUnit::Day), ts(2015, 8, 19, 0, 0, 0));
        // 2015-08-19 was a Wednesday; the week starts Monday 2015-08-17.
        assert_eq!(t.truncate(TimeUnit::Week), ts(2015, 8, 17, 0, 0, 0));
        assert_eq!(t.truncate(TimeUnit::Month), ts(2015, 8, 1, 0, 0, 0));
        assert_eq!(t.truncate(TimeUnit::Quarter), ts(2015, 7, 1, 0, 0, 0));
        assert_eq!(t.truncate(TimeUnit::Year), ts(2015, 1, 1, 0, 0, 0));
    }

    #[test]
    fn truncation_is_idempotent_and_monotone() {
        let samples = [
            ts(2015, 1, 1, 0, 0, 0),
            ts(2015, 12, 31, 23, 59, 59),
            ts(1969, 6, 15, 11, 11, 11),
            ts(2000, 2, 29, 5, 0, 0),
        ];
        for unit in TimeUnit::ALL {
            for t in samples {
                let tr = t.truncate(unit);
                assert_eq!(tr.truncate(unit), tr, "{unit} not idempotent");
                assert!(tr <= t, "{unit} truncation must not move forward");
            }
        }
    }

    #[test]
    fn bin_labels() {
        let t = ts(2015, 8, 19, 14, 37, 42);
        assert_eq!(
            t.truncate(TimeUnit::Hour).bin_label(TimeUnit::Hour),
            "2015-08-19 14:00"
        );
        assert_eq!(t.bin_label(TimeUnit::Month), "2015-08");
        assert_eq!(t.bin_label(TimeUnit::Quarter), "2015-Q3");
        assert_eq!(t.bin_label(TimeUnit::Year), "2015");
    }

    #[test]
    fn display_forms() {
        assert_eq!(ts(2015, 7, 4, 0, 0, 0).to_string(), "2015-07-04");
        assert_eq!(ts(2015, 7, 4, 1, 2, 3).to_string(), "2015-07-04 01:02:03");
    }

    #[test]
    fn period_indices_match_paper_semantics() {
        let t = ts(2015, 8, 19, 14, 37, 42);
        assert_eq!(t.period_index(TimeUnit::Minute), 37);
        assert_eq!(t.period_index(TimeUnit::Hour), 14);
        // 2015-08-19 is day 231 of a non-leap year.
        assert_eq!(t.period_index(TimeUnit::Day), 231);
        assert_eq!(t.period_index(TimeUnit::Week), (231 - 1) / 7 + 1);
        assert_eq!(t.period_index(TimeUnit::Month), 8);
        assert_eq!(t.period_index(TimeUnit::Quarter), 3);
        assert_eq!(t.period_index(TimeUnit::Year), 2015);
    }

    #[test]
    fn period_index_ranges() {
        // One year of hourly samples yields exactly 24 distinct hour bins —
        // the |X'| = 24 of the paper's Table II.
        let mut hours = std::collections::HashSet::new();
        let mut days = std::collections::HashSet::new();
        for i in 0..8760 {
            let t = Timestamp::from_unix_seconds(
                Timestamp::from_civil(Civil::date(2015, 1, 1).unwrap()).unix_seconds() + i * 3600,
            );
            hours.insert(t.period_index(TimeUnit::Hour));
            days.insert(t.period_index(TimeUnit::Day));
        }
        assert_eq!(hours.len(), 24);
        assert_eq!(days.len(), 365);
    }

    #[test]
    fn period_index_equals_the_two_conversion_formula() {
        // The formula before one-conversion `period_index`: the civil date
        // of the timestamp, and for Day and Week a second conversion for
        // the day of year.
        fn reference(t: Timestamp, unit: TimeUnit) -> i64 {
            let c = t.civil();
            let day_of_year = || {
                let c = t.civil();
                days_from_civil(c.year, c.month, c.day) - days_from_civil(c.year, 1, 1) + 1
            };
            match unit {
                TimeUnit::Minute => i64::from(c.minute),
                TimeUnit::Hour => i64::from(c.hour),
                TimeUnit::Day => day_of_year(),
                TimeUnit::Week => (day_of_year() - 1) / 7 + 1,
                TimeUnit::Month => i64::from(c.month),
                TimeUnit::Quarter => i64::from((c.month - 1) / 3 + 1),
                TimeUnit::Year => i64::from(c.year),
            }
        }
        // Around each anchor: every second of the minute either side, and
        // a prime stride through the two days either side. The anchors are
        // the epoch, leap days (including 1900's and 2100's absence),
        // year ends and dates before 1970.
        let anchors = [
            ts(1970, 1, 1, 0, 0, 0),
            ts(1969, 12, 31, 23, 59, 59),
            ts(1968, 2, 29, 12, 0, 0),
            ts(1900, 3, 1, 0, 0, 0),
            ts(1600, 2, 29, 23, 59, 59),
            ts(2000, 2, 29, 0, 0, 0),
            ts(2000, 12, 31, 23, 59, 59),
            ts(2015, 12, 31, 23, 59, 59),
            ts(2016, 2, 29, 23, 59, 59),
            ts(2016, 12, 31, 0, 0, 0),
            ts(2100, 3, 1, 0, 0, 0),
            ts(1, 1, 1, 0, 0, 0),
            ts(-44, 3, 15, 12, 0, 0),
        ];
        let mut checked = 0;
        for anchor in anchors {
            let base = anchor.unix_seconds();
            let near = (-60..=60).map(|d| base + d);
            let stride = (-172_800..=172_800).step_by(997).map(|d| base + d);
            for secs in near.chain(stride) {
                let t = Timestamp::from_unix_seconds(secs);
                for unit in TimeUnit::ALL {
                    assert_eq!(t.period_index(unit), reference(t, unit), "{t} {unit}");
                    checked += 1;
                }
            }
        }
        // Ten years from 1965 at an hour and a prime number of seconds.
        let start = ts(1965, 1, 1, 0, 0, 0).unix_seconds();
        for secs in (start..start + 10 * 366 * 86_400).step_by(3_607) {
            let t = Timestamp::from_unix_seconds(secs);
            for unit in TimeUnit::ALL {
                assert_eq!(t.period_index(unit), reference(t, unit), "{t} {unit}");
                checked += 1;
            }
        }
        assert!(checked > 600_000, "{checked}");
    }

    #[test]
    fn leap_year_day_index() {
        let t = ts(2016, 12, 31, 0, 0, 0);
        assert_eq!(t.period_index(TimeUnit::Day), 366);
    }

    #[test]
    fn period_labels() {
        assert_eq!(Timestamp::period_label(TimeUnit::Hour, 14), "14:00");
        assert_eq!(Timestamp::period_label(TimeUnit::Month, 1), "Jan");
        assert_eq!(Timestamp::period_label(TimeUnit::Quarter, 3), "Q3");
        assert_eq!(Timestamp::period_label(TimeUnit::Minute, 5), ":05");
        assert_eq!(Timestamp::period_label(TimeUnit::Year, 2015), "2015");
        assert_eq!(Timestamp::period_label(TimeUnit::Week, 33), "week 33");
    }

    #[test]
    fn timeunit_keywords_round_trip() {
        for u in TimeUnit::ALL {
            assert_eq!(TimeUnit::from_keyword(u.keyword()), Some(u));
            assert_eq!(TimeUnit::from_keyword(&u.keyword().to_lowercase()), Some(u));
        }
        assert_eq!(TimeUnit::from_keyword("fortnight"), None);
    }
}
