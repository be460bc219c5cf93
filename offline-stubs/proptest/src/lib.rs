//! Empty shell: nothing depends on `proptest`. The package exists because
//! `benchmark/run.sh` patches it in, and cargo refuses a patch whose path
//! does not exist (see offline-stubs/README.md).
