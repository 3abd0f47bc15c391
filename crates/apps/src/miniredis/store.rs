//! The in-memory data-structure store and its command/value model.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::kv::AppError;

/// A Redis-style value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Binary-safe string.
    Str(Vec<u8>),
    /// Field → value hash.
    Hash(HashMap<String, Vec<u8>>),
    /// Double-ended list.
    List(VecDeque<Vec<u8>>),
    /// Unordered set.
    Set(HashSet<Vec<u8>>),
}

/// Mutating commands — exactly the ones logged to the AOF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `SET key value`.
    Set(String, Vec<u8>),
    /// `DEL key`.
    Del(String),
    /// `HSET key field value`.
    HSet(String, String, Vec<u8>),
    /// `HDEL key field`.
    HDel(String, String),
    /// `LPUSH key value`.
    LPush(String, Vec<u8>),
    /// `RPUSH key value`.
    RPush(String, Vec<u8>),
    /// `LPOP key`.
    LPop(String),
    /// `RPOP key`.
    RPop(String),
    /// `SADD key member`.
    SAdd(String, Vec<u8>),
    /// `SREM key member`.
    SRem(String, Vec<u8>),
    /// `INCR key` (string integer increment).
    Incr(String),
}

/// Read-only queries — never logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `GET key`.
    Get(String),
    /// `EXISTS key`.
    Exists(String),
    /// `HGET key field`.
    HGet(String, String),
    /// `HGETALL key`.
    HGetAll(String),
    /// `LRANGE key start stop` (inclusive, like Redis).
    LRange(String, i64, i64),
    /// `LLEN key`.
    LLen(String),
    /// `SISMEMBER key member`.
    SIsMember(String, Vec<u8>),
    /// `SCARD key`.
    SCard(String),
    /// `DBSIZE`.
    DbSize,
}

/// Command/query results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success without payload.
    Ok,
    /// A (possibly absent) bulk value.
    Bulk(Option<Vec<u8>>),
    /// An integer (counts, INCR results, booleans as 0/1).
    Int(i64),
    /// Multiple values.
    Multi(Vec<Vec<u8>>),
    /// Field/value pairs.
    Pairs(Vec<(String, Vec<u8>)>),
    /// Type error (`WRONGTYPE` in Redis).
    WrongType,
}

/// The keyspace.
#[derive(Debug, Default, Clone)]
pub struct Store {
    map: HashMap<String, Value>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the keyspace is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies a mutating command, returning its reply.
    pub fn apply(&mut self, cmd: &Command) -> Reply {
        match cmd {
            Command::Set(k, v) => {
                self.map.insert(k.clone(), Value::Str(v.clone()));
                Reply::Ok
            }
            Command::Del(k) => Reply::Int(self.map.remove(k).is_some() as i64),
            Command::HSet(k, f, v) => match self
                .map
                .entry(k.clone())
                .or_insert_with(|| Value::Hash(HashMap::new()))
            {
                Value::Hash(h) => Reply::Int(h.insert(f.clone(), v.clone()).is_none() as i64),
                _ => Reply::WrongType,
            },
            Command::HDel(k, f) => match self.map.get_mut(k) {
                Some(Value::Hash(h)) => Reply::Int(h.remove(f).is_some() as i64),
                Some(_) => Reply::WrongType,
                None => Reply::Int(0),
            },
            Command::LPush(k, v) => match self
                .map
                .entry(k.clone())
                .or_insert_with(|| Value::List(VecDeque::new()))
            {
                Value::List(l) => {
                    l.push_front(v.clone());
                    Reply::Int(l.len() as i64)
                }
                _ => Reply::WrongType,
            },
            Command::RPush(k, v) => match self
                .map
                .entry(k.clone())
                .or_insert_with(|| Value::List(VecDeque::new()))
            {
                Value::List(l) => {
                    l.push_back(v.clone());
                    Reply::Int(l.len() as i64)
                }
                _ => Reply::WrongType,
            },
            Command::LPop(k) => match self.map.get_mut(k) {
                Some(Value::List(l)) => Reply::Bulk(l.pop_front()),
                Some(_) => Reply::WrongType,
                None => Reply::Bulk(None),
            },
            Command::RPop(k) => match self.map.get_mut(k) {
                Some(Value::List(l)) => Reply::Bulk(l.pop_back()),
                Some(_) => Reply::WrongType,
                None => Reply::Bulk(None),
            },
            Command::SAdd(k, m) => match self
                .map
                .entry(k.clone())
                .or_insert_with(|| Value::Set(HashSet::new()))
            {
                Value::Set(s) => Reply::Int(s.insert(m.clone()) as i64),
                _ => Reply::WrongType,
            },
            Command::SRem(k, m) => match self.map.get_mut(k) {
                Some(Value::Set(s)) => Reply::Int(s.remove(m) as i64),
                Some(_) => Reply::WrongType,
                None => Reply::Int(0),
            },
            Command::Incr(k) => {
                let cur = match self.map.get(k) {
                    Some(Value::Str(s)) => match std::str::from_utf8(s)
                        .ok()
                        .and_then(|t| t.parse::<i64>().ok())
                    {
                        Some(n) => n,
                        None => return Reply::WrongType,
                    },
                    Some(_) => return Reply::WrongType,
                    None => 0,
                };
                let next = cur + 1;
                self.map
                    .insert(k.clone(), Value::Str(next.to_string().into_bytes()));
                Reply::Int(next)
            }
        }
    }

    /// Evaluates a read-only query.
    pub fn query(&self, q: &Query) -> Reply {
        match q {
            Query::Get(k) => match self.map.get(k) {
                Some(Value::Str(s)) => Reply::Bulk(Some(s.clone())),
                Some(_) => Reply::WrongType,
                None => Reply::Bulk(None),
            },
            Query::Exists(k) => Reply::Int(self.map.contains_key(k) as i64),
            Query::HGet(k, f) => match self.map.get(k) {
                Some(Value::Hash(h)) => Reply::Bulk(h.get(f).cloned()),
                Some(_) => Reply::WrongType,
                None => Reply::Bulk(None),
            },
            Query::HGetAll(k) => match self.map.get(k) {
                Some(Value::Hash(h)) => {
                    let mut pairs: Vec<(String, Vec<u8>)> =
                        h.iter().map(|(f, v)| (f.clone(), v.clone())).collect();
                    pairs.sort();
                    Reply::Pairs(pairs)
                }
                Some(_) => Reply::WrongType,
                None => Reply::Pairs(Vec::new()),
            },
            Query::LRange(k, start, stop) => match self.map.get(k) {
                Some(Value::List(l)) => {
                    let n = l.len() as i64;
                    let s = if *start < 0 {
                        (n + start).max(0)
                    } else {
                        (*start).min(n)
                    };
                    let e = if *stop < 0 {
                        n + stop
                    } else {
                        (*stop).min(n - 1)
                    };
                    if s > e || n == 0 {
                        return Reply::Multi(Vec::new());
                    }
                    Reply::Multi(
                        l.iter()
                            .skip(s as usize)
                            .take((e - s + 1) as usize)
                            .cloned()
                            .collect(),
                    )
                }
                Some(_) => Reply::WrongType,
                None => Reply::Multi(Vec::new()),
            },
            Query::LLen(k) => match self.map.get(k) {
                Some(Value::List(l)) => Reply::Int(l.len() as i64),
                Some(_) => Reply::WrongType,
                None => Reply::Int(0),
            },
            Query::SIsMember(k, m) => match self.map.get(k) {
                Some(Value::Set(s)) => Reply::Int(s.contains(m) as i64),
                Some(_) => Reply::WrongType,
                None => Reply::Int(0),
            },
            Query::SCard(k) => match self.map.get(k) {
                Some(Value::Set(s)) => Reply::Int(s.len() as i64),
                Some(_) => Reply::WrongType,
                None => Reply::Int(0),
            },
            Query::DbSize => Reply::Int(self.map.len() as i64),
        }
    }

    /// Serialises the keyspace for an RDB snapshot.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.map.len() as u64).to_le_bytes());
        let mut keys: Vec<&String> = self.map.keys().collect();
        keys.sort(); // Deterministic snapshots for testability.
        for k in keys {
            let v = &self.map[k];
            write_bytes(&mut out, k.as_bytes());
            match v {
                Value::Str(s) => {
                    out.push(0);
                    write_bytes(&mut out, s);
                }
                Value::Hash(h) => {
                    out.push(1);
                    out.extend_from_slice(&(h.len() as u64).to_le_bytes());
                    let mut fields: Vec<&String> = h.keys().collect();
                    fields.sort();
                    for f in fields {
                        write_bytes(&mut out, f.as_bytes());
                        write_bytes(&mut out, &h[f]);
                    }
                }
                Value::List(l) => {
                    out.push(2);
                    out.extend_from_slice(&(l.len() as u64).to_le_bytes());
                    for item in l {
                        write_bytes(&mut out, item);
                    }
                }
                Value::Set(s) => {
                    out.push(3);
                    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                    let mut members: Vec<&Vec<u8>> = s.iter().collect();
                    members.sort();
                    for m in members {
                        write_bytes(&mut out, m);
                    }
                }
            }
        }
        out
    }

    /// Rebuilds a keyspace from an RDB snapshot.
    pub fn deserialize(buf: &[u8]) -> Result<Self, AppError> {
        let mut pos = 0usize;
        let count = read_u64(buf, &mut pos)? as usize;
        let mut map = HashMap::with_capacity(count);
        for _ in 0..count {
            let key = String::from_utf8(read_bytes(buf, &mut pos)?)
                .map_err(|_| AppError::Corrupt("rdb key not utf8".into()))?;
            let tag = *buf
                .get(pos)
                .ok_or_else(|| AppError::Corrupt("rdb truncated".into()))?;
            pos += 1;
            let value = match tag {
                0 => Value::Str(read_bytes(buf, &mut pos)?),
                1 => {
                    let n = read_u64(buf, &mut pos)? as usize;
                    let mut h = HashMap::with_capacity(n);
                    for _ in 0..n {
                        let f = String::from_utf8(read_bytes(buf, &mut pos)?)
                            .map_err(|_| AppError::Corrupt("rdb field not utf8".into()))?;
                        h.insert(f, read_bytes(buf, &mut pos)?);
                    }
                    Value::Hash(h)
                }
                2 => {
                    let n = read_u64(buf, &mut pos)? as usize;
                    let mut l = VecDeque::with_capacity(n);
                    for _ in 0..n {
                        l.push_back(read_bytes(buf, &mut pos)?);
                    }
                    Value::List(l)
                }
                3 => {
                    let n = read_u64(buf, &mut pos)? as usize;
                    let mut s = HashSet::with_capacity(n);
                    for _ in 0..n {
                        s.insert(read_bytes(buf, &mut pos)?);
                    }
                    Value::Set(s)
                }
                t => return Err(AppError::Corrupt(format!("rdb bad value tag {t}"))),
            };
            map.insert(key, value);
        }
        Ok(Store { map })
    }
}

/// Appends `b` length-prefixed (a little-endian `u32`): the one byte-string
/// codec of the RDB snapshot and the AOF.
pub(super) fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, AppError> {
    if *pos + 8 > buf.len() {
        return Err(AppError::Corrupt("rdb truncated u64".into()));
    }
    let v = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8"));
    *pos += 8;
    Ok(v)
}

/// Reads a [`write_bytes`] string at `*pos` and moves past it.
pub(super) fn read_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, AppError> {
    if *pos + 4 > buf.len() {
        return Err(AppError::Corrupt("truncated length".into()));
    }
    let len = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4")) as usize;
    *pos += 4;
    if *pos + len > buf.len() {
        return Err(AppError::Corrupt("truncated bytes".into()));
    }
    let v = buf[*pos..*pos + len].to_vec();
    *pos += len;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_set_get_del() {
        let mut s = Store::new();
        assert_eq!(s.apply(&Command::Set("k".into(), b"v".to_vec())), Reply::Ok);
        assert_eq!(
            s.query(&Query::Get("k".into())),
            Reply::Bulk(Some(b"v".to_vec()))
        );
        assert_eq!(s.apply(&Command::Del("k".into())), Reply::Int(1));
        assert_eq!(s.query(&Query::Get("k".into())), Reply::Bulk(None));
        assert_eq!(s.apply(&Command::Del("k".into())), Reply::Int(0));
    }

    #[test]
    fn hash_operations() {
        let mut s = Store::new();
        assert_eq!(
            s.apply(&Command::HSet("h".into(), "f1".into(), b"1".to_vec())),
            Reply::Int(1)
        );
        assert_eq!(
            s.apply(&Command::HSet("h".into(), "f1".into(), b"2".to_vec())),
            Reply::Int(0)
        );
        assert_eq!(
            s.query(&Query::HGet("h".into(), "f1".into())),
            Reply::Bulk(Some(b"2".to_vec()))
        );
        s.apply(&Command::HSet("h".into(), "f2".into(), b"3".to_vec()));
        assert_eq!(
            s.query(&Query::HGetAll("h".into())),
            Reply::Pairs(vec![
                ("f1".into(), b"2".to_vec()),
                ("f2".into(), b"3".to_vec())
            ])
        );
        assert_eq!(
            s.apply(&Command::HDel("h".into(), "f1".into())),
            Reply::Int(1)
        );
    }

    #[test]
    fn list_operations() {
        let mut s = Store::new();
        s.apply(&Command::RPush("l".into(), b"b".to_vec()));
        s.apply(&Command::LPush("l".into(), b"a".to_vec()));
        s.apply(&Command::RPush("l".into(), b"c".to_vec()));
        assert_eq!(s.query(&Query::LLen("l".into())), Reply::Int(3));
        assert_eq!(
            s.query(&Query::LRange("l".into(), 0, -1)),
            Reply::Multi(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()])
        );
        assert_eq!(
            s.apply(&Command::LPop("l".into())),
            Reply::Bulk(Some(b"a".to_vec()))
        );
        assert_eq!(
            s.apply(&Command::RPop("l".into())),
            Reply::Bulk(Some(b"c".to_vec()))
        );
    }

    #[test]
    fn set_operations() {
        let mut s = Store::new();
        assert_eq!(
            s.apply(&Command::SAdd("s".into(), b"x".to_vec())),
            Reply::Int(1)
        );
        assert_eq!(
            s.apply(&Command::SAdd("s".into(), b"x".to_vec())),
            Reply::Int(0)
        );
        assert_eq!(
            s.query(&Query::SIsMember("s".into(), b"x".to_vec())),
            Reply::Int(1)
        );
        assert_eq!(s.query(&Query::SCard("s".into())), Reply::Int(1));
        assert_eq!(
            s.apply(&Command::SRem("s".into(), b"x".to_vec())),
            Reply::Int(1)
        );
        assert_eq!(s.query(&Query::SCard("s".into())), Reply::Int(0));
    }

    #[test]
    fn incr_counts_and_rejects_non_integers() {
        let mut s = Store::new();
        assert_eq!(s.apply(&Command::Incr("n".into())), Reply::Int(1));
        assert_eq!(s.apply(&Command::Incr("n".into())), Reply::Int(2));
        s.apply(&Command::Set("x".into(), b"not a number".to_vec()));
        assert_eq!(s.apply(&Command::Incr("x".into())), Reply::WrongType);
    }

    #[test]
    fn wrong_type_detected() {
        let mut s = Store::new();
        s.apply(&Command::Set("k".into(), b"str".to_vec()));
        assert_eq!(
            s.apply(&Command::LPush("k".into(), b"v".to_vec())),
            Reply::WrongType
        );
        assert_eq!(
            s.query(&Query::HGet("k".into(), "f".into())),
            Reply::WrongType
        );
    }

    #[test]
    fn negative_lrange_indices() {
        let mut s = Store::new();
        for x in [b"1", b"2", b"3", b"4"] {
            s.apply(&Command::RPush("l".into(), x.to_vec()));
        }
        assert_eq!(
            s.query(&Query::LRange("l".into(), -2, -1)),
            Reply::Multi(vec![b"3".to_vec(), b"4".to_vec()])
        );
    }

    #[test]
    fn rdb_roundtrip_all_types() {
        let mut s = Store::new();
        s.apply(&Command::Set("str".into(), b"v".to_vec()));
        s.apply(&Command::HSet("hash".into(), "f".into(), b"hv".to_vec()));
        s.apply(&Command::RPush("list".into(), b"a".to_vec()));
        s.apply(&Command::RPush("list".into(), b"b".to_vec()));
        s.apply(&Command::SAdd("set".into(), b"m".to_vec()));
        let blob = s.serialize();
        let restored = Store::deserialize(&blob).unwrap();
        assert_eq!(
            restored.query(&Query::Get("str".into())),
            Reply::Bulk(Some(b"v".to_vec()))
        );
        assert_eq!(
            restored.query(&Query::HGet("hash".into(), "f".into())),
            Reply::Bulk(Some(b"hv".to_vec()))
        );
        assert_eq!(
            restored.query(&Query::LRange("list".into(), 0, -1)),
            Reply::Multi(vec![b"a".to_vec(), b"b".to_vec()])
        );
        assert_eq!(
            restored.query(&Query::SIsMember("set".into(), b"m".to_vec())),
            Reply::Int(1)
        );
        assert_eq!(restored.len(), 4);
    }

    #[test]
    fn rdb_detects_truncation() {
        let mut s = Store::new();
        s.apply(&Command::Set("k".into(), b"value".to_vec()));
        let blob = s.serialize();
        assert!(Store::deserialize(&blob[..blob.len() - 2]).is_err());
    }
}
