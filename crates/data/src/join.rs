//! Key-based joins between frames.
//!
//! The paper's first preprocessing step merges features collected at
//! different levels (scheduler log, node-level GPU reductions) into a single
//! per-job table; [`inner_join`] implements that merge keyed on the job id.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::frame::Frame;

/// No slot or no row: a null key, a key the other side never holds, or
/// the end of a chain.
const NONE: usize = usize::MAX;

/// Maps both sides' key cells to dense slots, equal keys sharing a slot:
/// int keys through a hash map over the right side, string keys through
/// the right dictionary's codes (each left dictionary entry is looked up
/// once), bool keys directly. Keys of different types never match.
/// Returns the left and right slot per row and the number of slots.
fn key_slots(left: &Column, right: &Column) -> Result<(Vec<usize>, Vec<usize>, usize)> {
    let float = |col: &Column| matches!(col, Column::Float(_)) && !col.is_empty();
    if float(right) || float(left) {
        return Err(DataError::Join("cannot join on a float column".to_string()));
    }
    Ok(match (left, right) {
        (Column::Int(l), Column::Int(r)) => {
            let mut slot_of: HashMap<i64, usize> = HashMap::with_capacity(r.len());
            let right = r
                .iter()
                .map(|k| {
                    k.map_or(NONE, |k| {
                        let n = slot_of.len();
                        *slot_of.entry(k).or_insert(n)
                    })
                })
                .collect();
            let left = l
                .iter()
                .map(|k| k.and_then(|k| slot_of.get(&k).copied()).unwrap_or(NONE))
                .collect();
            (left, right, slot_of.len())
        }
        (Column::Str(l), Column::Str(r)) => {
            // Null cells carry the code `u32::MAX`.
            let to_right: Vec<usize> = l
                .dict()
                .iter()
                .map(|s| r.code(s).map_or(NONE, |c| c as usize))
                .collect();
            let left = l
                .codes()
                .iter()
                .map(|&c| {
                    if c == u32::MAX {
                        NONE
                    } else {
                        to_right[c as usize]
                    }
                })
                .collect();
            let right = r
                .codes()
                .iter()
                .map(|&c| if c == u32::MAX { NONE } else { c as usize })
                .collect();
            (left, right, r.cardinality())
        }
        (Column::Bool(l), Column::Bool(r)) => {
            let slot = |k: &Option<bool>| k.map_or(NONE, usize::from);
            (
                l.iter().map(slot).collect(),
                r.iter().map(slot).collect(),
                2,
            )
        }
        _ => (vec![NONE; left.len()], vec![NONE; right.len()], 0),
    })
}

/// Inner join: keeps left rows with at least one key match in `right`;
/// multiple matches multiply rows (needed for one-to-many log merges).
pub fn inner_join(left: &Frame, right: &Frame, key: &str) -> Result<Frame> {
    let right_key = right.column(key)?;
    let (left_slots, right_slots, n_slots) = key_slots(left.column(key)?, right_key)?;

    // Right rows per slot: `head` holds the first, `next` chains the rest,
    // both in row order so one-to-many matches keep the right-hand order.
    let mut head = vec![NONE; n_slots];
    let mut next = vec![NONE; right_slots.len()];
    for (row, &slot) in right_slots.iter().enumerate().rev() {
        if slot != NONE {
            next[row] = head[slot];
            head[slot] = row;
        }
    }

    let mut left_rows: Vec<usize> = Vec::with_capacity(left_slots.len());
    let mut right_rows: Vec<usize> = Vec::with_capacity(left_slots.len());
    for (row, &slot) in left_slots.iter().enumerate() {
        let mut r = head.get(slot).copied().unwrap_or(NONE);
        while r != NONE {
            left_rows.push(row);
            right_rows.push(r);
            r = next[r];
        }
    }

    let mut out = left.take(&left_rows);
    for (name, col) in right.names().iter().zip(right.columns()) {
        if name == key {
            continue;
        }
        let out_name = if out.has_column(name) {
            format!("{name}_right")
        } else {
            name.clone()
        };
        out.add_column(&out_name, col.take(&right_rows))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_str;
    use crate::value::Value;

    fn sched() -> Frame {
        read_csv_str("job_id,user,status\n1,alice,pass\n2,bob,fail\n3,carol,pass\n").unwrap()
    }

    fn gpu() -> Frame {
        read_csv_str("job_id,sm_util\n1,0.0\n2,87.5\n9,50.0\n").unwrap()
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let j = inner_join(&sched(), &gpu(), "job_id").unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.get(0, "user").unwrap(), Value::Str("alice".into()));
        assert_eq!(j.get(0, "sm_util").unwrap(), Value::Float(0.0));
        assert_eq!(j.get(1, "sm_util").unwrap(), Value::Float(87.5));
    }

    #[test]
    fn one_to_many_multiplies_rows() {
        let right = read_csv_str("job_id,attempt\n1,1\n1,2\n").unwrap();
        let j = inner_join(&sched(), &right, "job_id").unwrap();
        assert_eq!(j.n_rows(), 2);
        assert_eq!(j.get(0, "attempt").unwrap(), Value::Int(1));
        assert_eq!(j.get(1, "attempt").unwrap(), Value::Int(2));
    }

    #[test]
    fn name_collision_gets_suffix() {
        let right = read_csv_str("job_id,user\n1,server-a\n").unwrap();
        let j = inner_join(&sched(), &right, "job_id").unwrap();
        assert!(j.has_column("user_right"));
        assert_eq!(
            j.get(0, "user_right").unwrap(),
            Value::Str("server-a".into())
        );
    }

    #[test]
    fn join_on_string_key() {
        let left = read_csv_str("user,a\nalice,1\nbob,2\n").unwrap();
        let right = read_csv_str("user,b\nbob,9\n").unwrap();
        let j = inner_join(&left, &right, "user").unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.get(0, "b").unwrap(), Value::Int(9));
    }

    #[test]
    fn join_on_float_rejected() {
        let left = read_csv_str("k,a\n1.5,1\n").unwrap();
        let right = read_csv_str("k,b\n1.5,2\n").unwrap();
        assert!(inner_join(&left, &right, "k").is_err());
    }

    #[test]
    fn null_keys_never_match() {
        let left = read_csv_str("k,a\n,1\n2,2\n").unwrap();
        let right = read_csv_str("k,b\n,9\n2,8\n").unwrap();
        let j = inner_join(&left, &right, "k").unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.get(0, "b").unwrap(), Value::Int(8));
    }
}
