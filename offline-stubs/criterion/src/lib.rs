//! Empty shell: nothing depends on `criterion`. The package exists because
//! `benchmark/run.sh` patches it in, and cargo refuses a patch whose path
//! does not exist (see offline-stubs/README.md).
